package main

import (
	"fmt"
	"slices"
	"time"

	"pactrain/internal/audit"
	"pactrain/internal/core"
	"pactrain/internal/harness"
	"pactrain/internal/obs"
)

// setupReps is how many times train-direct sets up.
const setupReps = 9

// trainEpochs is the train-direct run length: one warm-up epoch, then the
// pruning step and one epoch of GSE, mask tracking and compact encoding.
const trainEpochs = 2

// timedSetups prepares the configs setupReps times, recording each set-up's
// seconds, and keeps the last preparation. A set-up takes tens of milliseconds,
// so the median needs several of them to hold still.
func (b *bench) timedSetups(o *outcome, cfgs []core.Config) ([]prepared, error) {
	var out []prepared
	for i := 0; i < setupReps; i++ {
		out = out[:0]
		t0 := time.Now()
		for _, cfg := range cfgs {
			p, err := prepare(cfg)
			if err != nil {
				return nil, err
			}
			out = append(out, p)
		}
		o.setups = append(o.setups, time.Since(t0).Seconds())
	}
	return out, nil
}

// trainConfigs are the train-direct runs: pactrain-ternary at world 8 on the
// VGG19 and ViT-Base-16 lite twins, the only models whose conv, BatchNorm,
// pooling, attention and LayerNorm kernels the benchmark exercises.
func (b *bench) trainConfigs() []core.Config {
	var cfgs []core.Config
	for _, model := range []string{"VGG19", "ViT-Base-16"} {
		cfg := core.DefaultConfig(model, "pactrain-ternary")
		cfg.Epochs = trainEpochs
		cfg.Seed = b.seed
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}

// runTrainDirect times core.Run with no engine, checks that repeated runs
// of one config agree bit for bit, and that each run's trace and audit
// replay hold.
func runTrainDirect(b *bench) (*outcome, error) {
	o := &outcome{}
	cfgs := b.trainConfigs()
	preps, err := b.timedSetups(o, cfgs)
	if err != nil {
		return nil, err
	}
	first := make([]*core.Result, len(cfgs))
	var runBusy float64
	var last []*core.Result
	round := func() error {
		run := fmt.Sprintf("train-direct/round%d", len(o.walls))
		t := startTimer()
		root := b.rec.begin("round", run, -1)
		last = last[:0]
		// Both trainings are due when the round starts.
		due := time.Now()
		for i, cfg := range cfgs {
			t0 := time.Now()
			id := b.rec.begin("core.run", run, root)
			res, err := core.Run(cfg)
			b.rec.end(id)
			d := time.Since(t0).Seconds()
			o.attempted++
			if err != nil {
				o.failed++
				o.check(false, "%s: %v", cfg.ModelName, err)
				continue
			}
			runBusy += d
			o.latencies = append(o.latencies, time.Since(due).Seconds())
			last = append(last, res)
			if first[i] == nil {
				first[i] = res
			}
			o.check(slices.Equal(res.WeightChecksums, first[i].WeightChecksums) && res.SimSeconds == first[i].SimSeconds,
				"%s round %d: weights or simulated time differ from round 0", cfg.ModelName, len(o.walls))
			for r, c := range res.WeightChecksums {
				o.check(c == res.WeightChecksums[0], "%s: rank %d weights diverged from rank 0", cfg.ModelName, r)
			}
		}
		b.rec.end(root)
		t.stop(o)
		return nil
	}

	if b.rec == nil {
		for len(o.walls) == 0 || sum(o.walls) < b.seconds {
			if err := round(); err != nil {
				return nil, err
			}
		}
	} else {
		rec := b.rec
		b.rec = nil
		if err := round(); err != nil {
			return nil, err
		}
		b.rec = rec
		runBusy = 0
		if err := round(); err != nil {
			return nil, err
		}
	}

	// Trace and audit every distinct run; both replays must land on the
	// recorded clock.
	tracer := obs.NewTracer()
	var traceS, auditS float64
	ledgers := 0
	for i, cfg := range cfgs {
		if first[i] == nil {
			continue
		}
		t0 := time.Now()
		harness.TraceRun(tracer, cfg.ModelName, cfg, first[i])
		t1 := time.Now()
		_, err := harness.AuditRun(cfg.ModelName, cfg, first[i], audit.Options{})
		auditS += time.Since(t1).Seconds()
		traceS += t1.Sub(t0).Seconds()
		o.check(err == nil, "%s: audit replay: %v", cfg.ModelName, err)
		if err == nil {
			ledgers++
		}
	}
	t0 := time.Now()
	tr := tracer.Build()
	raw, err := tr.JSON()
	traceS += time.Since(t0).Seconds()
	if err != nil {
		return nil, fmt.Errorf("build trace: %w", err)
	}
	if err := obs.Validate(raw); err != nil {
		o.check(false, "train-direct trace fails obs.Validate: %v", err)
	}
	if b.rec == nil {
		return o, nil
	}

	l := layerSet{}
	var p probeTotals
	for _, pr := range preps {
		if err := probe(pr, &p); err != nil {
			return nil, err
		}
	}
	l.addProbes(p)
	l.addRuns(runBusy, last, p, nproc())
	l["collective.price_s"] = priceLogs(last)
	l["obs.trace_s"] = traceS
	l["obs.spans"] = float64(tr.Events())
	l["audit.replay_s"] = auditS
	l["audit.ledgers"] = float64(ledgers)
	l["trace.overhead_s"] = o.walls[1] - o.walls[0]
	o.layers = l.metrics()
	return o, nil
}
