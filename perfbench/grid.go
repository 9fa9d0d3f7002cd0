package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"pactrain/internal/audit"
	"pactrain/internal/core"
	"pactrain/internal/harness"
	"pactrain/internal/harness/engine"
)

// The quick grid's fixed shape: `-exp all -quick` submits 49 jobs, trains 24
// distinct configs and deduplicates the other 25.
const (
	gridSubmitted = 49
	gridTrained   = 24
	gridDeduped   = 25
)

// gridRound is what one pass over the experiment registry produced.
type gridRound struct {
	reports []byte // every experiment's text and JSON report, in registry order
	audit   []byte // the audit artefact, when an auditor was attached
	ledgers int    // collected audit reports
	stats   engine.Stats
	perExp  []float64 // seconds from the round's start to each experiment's rendered report
}

// engineWatch observes an engine's events: it sums the waits between a
// submission and its training slot or its cache answer, and opens the traced
// run's engine.lookup spans under the running experiment's span.
type engineWatch struct {
	rec       *recorder
	run       string
	mu        sync.Mutex
	parent    int
	submitted map[string]time.Time
	slotWait  float64
	lookup    float64
}

func newEngineWatch(rec *recorder, run string) *engineWatch {
	return &engineWatch{rec: rec, run: run, parent: -1, submitted: make(map[string]time.Time)}
}

func (w *engineWatch) setParent(id int) {
	w.mu.Lock()
	w.parent = id
	w.mu.Unlock()
}

func (w *engineWatch) on(ev engine.Event) {
	now := time.Now()
	w.mu.Lock()
	defer w.mu.Unlock()
	fp := ev.Fingerprint
	switch ev.Kind {
	case engine.EventSubmitted:
		if _, ok := w.submitted[fp]; !ok {
			w.submitted[fp] = now
		}
	case engine.EventTrainStart:
		w.slotWait += now.Sub(w.submitted[fp]).Seconds()
	case engine.EventCacheHit, engine.EventPeerHit:
		w.lookup += now.Sub(w.submitted[fp]).Seconds()
		w.rec.add("engine.lookup", w.run, w.parent, w.submitted[fp], now)
	}
}

// tapCache is the on-disk cache with every Result the engine stores or loads
// kept aside, so a traced run can price the recorded logs.
type tapCache struct {
	*engine.Cache
	mu      sync.Mutex
	results map[string]*core.Result
}

func newTapCache(dir string) *tapCache {
	return &tapCache{Cache: engine.NewCache(dir), results: make(map[string]*core.Result)}
}

func (c *tapCache) keep(fp string, res *core.Result) {
	c.mu.Lock()
	c.results[fp] = res
	c.mu.Unlock()
}

func (c *tapCache) Load(fp string) (*core.Result, bool) {
	res, ok := c.Cache.Load(fp)
	if ok {
		c.keep(fp, res)
	}
	return res, ok
}

func (c *tapCache) Store(fp string, res *core.Result) error {
	c.keep(fp, res)
	return c.Cache.Store(fp, res)
}

// sorted returns the kept Results in fingerprint order.
func (c *tapCache) sorted() []*core.Result {
	c.mu.Lock()
	defer c.mu.Unlock()
	fps := make([]string, 0, len(c.results))
	for fp := range c.results {
		fps = append(fps, fp)
	}
	sort.Strings(fps)
	out := make([]*core.Result, len(fps))
	for i, fp := range fps {
		out[i] = c.results[fp]
	}
	return out
}

// gridEngine builds the engine one grid round submits to: Parallelism =
// nproc over a disk cache in dir. A traced round taps the cache and watches
// events.
func gridEngine(dir string, tap *tapCache, watch *engineWatch) *engine.Engine {
	opt := engine.Options{Parallelism: nproc(), CacheDir: dir}
	if tap != nil {
		opt.Cache = tap
	}
	if watch != nil {
		opt.OnEvent = watch.on
	}
	return engine.New(opt)
}

// gridOptions are the `-exp all -quick` options under the workload seed.
func (b *bench) gridOptions(eng *engine.Engine, auditor bool) harness.Options {
	opt := harness.Options{Quick: true, Seed: b.seed, Parallelism: nproc(), Engine: eng}
	if auditor {
		opt.Auditor = audit.NewCollector()
	}
	return opt
}

// runGrid runs every registered experiment in order, renders its text and
// JSON reports, and builds the audit artefact when the options attach an
// auditor. Spans land under root when the run is traced.
func (b *bench) runGrid(opt harness.Options, watch *engineWatch, run string, root int) (*gridRound, error) {
	out := &gridRound{}
	var buf bytes.Buffer
	// Every experiment of `-exp all` is due when the round starts; its
	// latency runs until its report is rendered.
	t0 := time.Now()
	for _, def := range harness.Experiments() {
		sid := b.rec.begin("harness."+def.ID, run, root)
		if watch != nil {
			watch.setParent(sid)
		}
		rep, err := def.Run(opt)
		b.rec.end(sid)
		if err != nil {
			return nil, fmt.Errorf("experiment %s: %w", def.ID, err)
		}
		rid := b.rec.begin("harness.render", run, root)
		buf.WriteString(rep.Render())
		js, err := harness.ReportJSON(def.ID, opt, rep)
		b.rec.end(rid)
		if err != nil {
			return nil, err
		}
		buf.Write(js)
		out.perExp = append(out.perExp, time.Since(t0).Seconds())
	}
	out.reports = buf.Bytes()
	if opt.Auditor != nil {
		id := b.rec.begin("audit.marshal", run, root)
		reports := opt.Auditor.Reports()
		raw, err := audit.MarshalReports(reports)
		b.rec.end(id)
		if err != nil {
			return nil, fmt.Errorf("marshal audit: %w", err)
		}
		out.audit, out.ledgers = raw, len(reports)
	}
	out.stats = opt.Engine.Stats()
	return out, nil
}

// gridProbe builds the quick workload's model and data the grid trains, for
// the layer probes.
func (b *bench) gridProbe() (prepared, error) {
	w := harness.QuickWorkloads()[0]
	cfg := core.DefaultConfig(w.Model, "pactrain-ternary")
	cfg.Lite.Width = w.Width
	cfg.Data.Samples = 320
	cfg.Data.Seed = 11 + b.seed
	cfg.BatchSize = 8
	cfg.LR = w.LR
	cfg.Seed = b.seed
	return prepare(cfg)
}

// runGridReplay times the quick grid against a disk cache the set-up
// filled: nothing trains, so cache decode, re-cost and replay, pricing,
// audit and rendering do all the work. The grid runs without a tracer: the
// trace the quick grid builds fails obs.Validate (decision instants of
// block-sparse ops carry no name), so train-direct is where the obs layer is
// measured and validated.
func runGridReplay(b *bench) (*outcome, error) {
	o := &outcome{}
	dir := filepath.Join(b.work, "cache")
	// The fill is a cold grid: the traced run watches its engine for the
	// waits for a training slot, which the replay rounds never have.
	var fillWatch *engineWatch
	if b.rec != nil {
		fillWatch = newEngineWatch(nil, "")
	}
	rec := b.rec
	b.rec = nil
	t0 := time.Now()
	fill, err := b.runGrid(b.gridOptions(gridEngine(dir, nil, fillWatch), true), fillWatch, "", -1)
	b.rec = rec
	if err != nil {
		return nil, err
	}
	o.setups = append(o.setups, time.Since(t0).Seconds())
	s := fill.stats
	o.check(s.Submitted == gridSubmitted && s.Trained == gridTrained && s.Deduped == gridDeduped && s.CacheHits == 0,
		"grid-replay cold fill engine stats %s, want %d submitted, %d trained, %d deduplicated, 0 cache hits",
		s.Summary(), gridSubmitted, gridTrained, gridDeduped)

	// round runs one replay pass; the timed rounds attach an auditor, the
	// traced run also times passes without one.
	round := func(auditor, traced, keep bool) (*gridRound, *tapCache, *engineWatch, float64, error) {
		var (
			tap   *tapCache
			watch *engineWatch
			saved = b.rec
			run   = fmt.Sprintf("grid-replay/round%d", len(o.walls))
		)
		if traced {
			tap, watch = newTapCache(dir), newEngineWatch(b.rec, run)
		} else {
			b.rec = nil
		}
		defer func() { b.rec = saved }()
		eng := gridEngine(dir, tap, watch)
		t := startTimer()
		root := b.rec.begin("round", run, -1)
		g, err := b.runGrid(b.gridOptions(eng, auditor), watch, run, root)
		b.rec.end(root)
		var wall float64
		if keep {
			wall = t.stop(o)
		} else {
			wall = time.Since(t.wall).Seconds()
		}
		if err != nil {
			return nil, nil, nil, 0, err
		}
		if keep {
			o.attempted += len(g.perExp)
			o.latencies = append(o.latencies, g.perExp...)
		}
		s := g.stats
		o.check(s.Submitted == gridSubmitted && s.Trained == 0 && s.Deduped == gridDeduped && s.CacheHits == gridTrained,
			"grid-replay engine stats %s, want %d submitted, 0 trained, %d deduplicated, %d cache hits",
			s.Summary(), gridSubmitted, gridDeduped, gridTrained)
		o.check(bytes.Equal(g.reports, fill.reports), "grid-replay reports differ from the set-up run's")
		if auditor {
			o.check(bytes.Equal(g.audit, fill.audit), "grid-replay audit artefact differs from the set-up run's")
		}
		return g, tap, watch, wall, nil
	}

	if b.rec == nil {
		for len(o.walls) == 0 || sum(o.walls) < b.seconds {
			if _, _, _, _, err := round(true, false, true); err != nil {
				return nil, err
			}
		}
		return o, nil
	}

	// Traced run: alternate passes with and without the auditor, so its
	// cost is the difference of medians. The auditor adds a few
	// milliseconds to a round, so it takes many passes to show.
	const passes = 25
	var with, without []float64
	for i := 0; i < passes; i++ {
		for _, v := range []struct {
			auditor bool
			dst     *[]float64
		}{{true, &with}, {false, &without}} {
			_, _, _, wall, err := round(v.auditor, false, v.auditor)
			if err != nil {
				return nil, err
			}
			*v.dst = append(*v.dst, wall)
		}
	}
	g, tap, watch, tracedWall, err := round(true, true, false)
	if err != nil {
		return nil, err
	}

	l := layerSet{}
	pr, err := b.gridProbe()
	if err != nil {
		return nil, err
	}
	var p probeTotals
	if err := probe(pr, &p); err != nil {
		return nil, err
	}
	l.addProbes(p)
	l["collective.price_s"] = priceLogs(tap.sorted())
	l.addEngine(g.stats)
	l["engine.slot_wait_s"] = fillWatch.slotWait
	l["engine.lookup_s"] = watch.lookup
	self := b.rec.selfByName()
	l.addSpans(self)
	l["audit.replay_s"] = median(with) - median(without) + self["audit.marshal"]
	l["audit.ledgers"] = float64(g.ledgers)
	l["trace.overhead_s"] = tracedWall - median(with)
	o.check(registryMatches(), "experiment registry %v differs from the benchmark's list", harness.ExperimentIDs())
	o.layers = l.metrics()
	return o, nil
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
