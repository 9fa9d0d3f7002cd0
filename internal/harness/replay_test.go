package harness

import (
	"testing"

	"pactrain/internal/audit"
	"pactrain/internal/core"
	"pactrain/internal/data"
	"pactrain/internal/ddp"
	"pactrain/internal/netsim"
	"pactrain/internal/nn"
	"pactrain/internal/obs"
)

// TestReplayAgreesWithTraining pins every observer of the replay kernel to
// the trainer's clock, bit for bit, across the batch plans and compute
// models the kernel owns: the re-costed clock at every curve point and at
// the end, rank 0's last traced collective span, and the audit's replayed
// end (which refuses on any mismatch). Sample counts cover full batches, a
// ragged final batch, and a count Run pads up to a multiple of World before
// cutting a ragged batch — the cases where a replay that prices every
// iteration at BatchSize drifts off the recorded clock.
func TestReplayAgreesWithTraining(t *testing.T) {
	t.Parallel()
	const world, batch = 4, 8
	samples := []struct {
		name string
		n    int
	}{
		{"world×batch", 64}, // shards of 16: two full batches
		{"world-only", 36},  // shards of 9: a batch of 8, then 1
		{"neither", 37},     // padded to 40, shards of 10: 8, then 2
	}
	computes := []struct {
		name string
		set  func(*core.Config)
	}{
		{"homogeneous", func(*core.Config) {}},
		{"overlap-backward", func(c *core.Config) { c.Overlap = ddp.OverlapBackward }},
		{"straggler", func(c *core.Config) {
			c.RankCompute = ddp.RankCompute{
				Multipliers: netsim.OneSlowRank(world, 2),
				JitterFrac:  0.1, JitterSeed: 5,
			}
		}},
	}
	for _, s := range samples {
		for _, c := range computes {
			s, c := s, c
			t.Run(s.name+"/"+c.name, func(t *testing.T) {
				t.Parallel()
				cfg := core.DefaultConfig("MLP", "all-reduce")
				cfg.World = world
				cfg.BatchSize = batch
				cfg.Data = data.CIFAR10Like(s.n, 5)
				cfg.TestSamples = 32
				cfg.Epochs = 2
				cfg.EvalEvery = 1
				cfg.BucketBytes = 1 << 14
				cfg.Profile = nn.CommProfile{Name: "MLP", Params: 1_000_000, FLOPsPerSample: 50_000_000}
				cfg.Compute = ddp.A40ComputeModel(cfg.Profile.FLOPsPerSample)
				c.set(&cfg)
				res, err := core.Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				assertReplayAgrees(t, cfg, res)
			})
		}
	}
}

// assertReplayAgrees checks the re-coster, the tracer and the auditor
// against one recorded run on its own fabric.
func assertReplayAgrees(t *testing.T, cfg core.Config, res *core.Result) {
	t.Helper()
	fabric := netsim.NewFabric(netsim.Fig4Topology(netsim.Fig4Options{BottleneckBps: cfg.BottleneckBps}))
	cum := recostCum(res, &cfg, fabric)
	if got := cum[len(cum)-1]; got != res.SimSeconds {
		t.Errorf("recost end %v != SimSeconds %v (Δ %g)", got, res.SimSeconds, got-res.SimSeconds)
	}
	for _, p := range res.Curve.Points {
		if cum[p.Iter] != p.SimTime {
			t.Errorf("recost at iter %d = %v, recorded %v (Δ %g)", p.Iter, cum[p.Iter], p.SimTime, cum[p.Iter]-p.SimTime)
		}
	}

	// Rank 0 (pid 1) emits its last collective span for the run's final op,
	// which spans [LaunchAt, SimSeconds] in training; the trace holds both
	// edges in microseconds, and encoding/json round-trips floats exactly.
	tr := obs.NewTracer()
	TraceRun(tr, "agree", cfg, res)
	raw, err := tr.Build().JSON()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	var ts, dur float64
	for _, ev := range decodeTrace(t, raw).TraceEvents {
		if ev.Pid == 1 && ev.Ph == "X" && ev.Cat == obs.CatCollective {
			found, ts, dur = true, ev.Ts, ev.Dur
		}
	}
	iters := res.CommLog.Iters
	final := iters[len(iters)-1]
	launch := final[len(final)-1].LaunchAt
	if !found {
		t.Error("trace has no collective span on rank 0")
	} else if ts != launch*1e6 || dur != (res.SimSeconds-launch)*1e6 {
		t.Errorf("rank 0's last span [%v, +%v]µs, training [%v, +%v]µs",
			ts, dur, launch*1e6, (res.SimSeconds-launch)*1e6)
	}

	rep, err := audit.Replay(cfg, res, audit.Options{})
	if err != nil {
		t.Fatalf("audit refused: %v", err)
	}
	if rep.ReplayEndSec != res.SimSeconds {
		t.Errorf("audit end %v != SimSeconds %v", rep.ReplayEndSec, res.SimSeconds)
	}
	if t.Failed() {
		t.Logf("samples %d, batch plan %v", cfg.Data.Samples, cfg.EpochBatches())
	}
}
