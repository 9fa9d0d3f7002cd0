package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"

	"pactrain/internal/collective"
	"pactrain/internal/compress"
	"pactrain/internal/core"
	"pactrain/internal/ddp"
	"pactrain/internal/netsim"
	"pactrain/internal/nn"
	"pactrain/internal/par"
	"pactrain/internal/replay"
	"pactrain/internal/tensor"
)

// The perf lane is the proof layer of the cluster-scale work: a pinned
// macro-benchmark grid whose wall times are written to BENCH_<grid>.json and
// diffed against a committed baseline, so a change that silently re-inflates
// re-costing from seconds back to minutes fails CI instead of landing. Wall
// times are machine-dependent, so every report carries a calibration entry —
// a fixed scalar spin — and comparisons normalize by the calibration ratio
// before applying the tolerance (DESIGN.md §10).

// BenchEntry is one pinned benchmark's best-of-Runs wall time.
type BenchEntry struct {
	Name string
	// Seconds is the fastest of Runs executions (minimum, not mean: the
	// minimum is the least noisy estimator of a benchmark's true cost).
	Seconds float64
	Runs    int
}

// BenchReport is the grid's result set, serialized to BENCH_<grid>.json.
type BenchReport struct {
	// Grid is "quick" or "full".
	Grid       string
	GoMaxProcs int
	Entries    []BenchEntry
}

// Entry fetches a benchmark by name.
func (r *BenchReport) Entry(name string) (BenchEntry, bool) {
	for _, e := range r.Entries {
		if e.Name == name {
			return e, true
		}
	}
	return BenchEntry{}, false
}

// BenchCalibration names the normalization entry present in every grid.
const BenchCalibration = "calibrate-spin"

// BenchTolerance is the normalized slowdown CI fails on (>10%).
const BenchTolerance = 0.10

// PerfOptions configures a perf-lane run.
type PerfOptions struct {
	// Quick selects the small grid (1,024-rank cluster entries).
	Quick bool
	// Log receives per-entry progress lines; nil discards them.
	Log io.Writer
	// Extra appends caller-supplied benchmarks after the built-in grid —
	// the hook subsystems outside the harness (the serve load generator)
	// use to land their entries in the same BENCH_*.json under the same
	// regression gate. Extra entries run last, in order.
	Extra []PerfCase
}

// benchSink defeats dead-code elimination of benchmark bodies.
var benchSink uint64

// PerfCase is one pinned benchmark: setup runs untimed, Fn is timed, and
// the fastest of Runs executions is recorded.
type PerfCase struct {
	Name string
	Runs int
	Fn   func()
	// Value, when non-nil, switches the entry to value mode: each run
	// records Value()'s return instead of Fn's wall time (minimum across
	// Runs, like wall entries). This is how measurements computed inside a
	// benchmark body — a latency quantile, a work ratio — enter the report
	// under the same normalization and tolerance as wall times. Fn is
	// ignored in value mode.
	Value func() float64
}

// calibrateSpin is a fixed, allocation-free, single-core integer spin. Its
// wall time tracks the host's scalar speed, which is what every other entry
// is bounded by, so cur/base calibration ratios transport a baseline across
// machines.
func calibrateSpin() {
	x := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < 40_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	benchSink = x
}

// composeCase walks iters iterations of the largescale bucket geometry
// through the replay kernel at the given world size with one slow rank
// (heterogeneity forces the per-rank path). The log's ops carry no payload,
// so every collective prices to zero without touching the fabric and the
// entry times the kernel alone — per-rank schedules, per-bucket barrier
// composition (IterComposer) and the Timeline — which was O(world × ops)
// before the composer.
func composeCase(world, iters int) func() {
	buckets := largeScaleBuckets()
	log := &core.CommLog{}
	log.SetBuckets(buckets)
	for k := 0; k < iters; k++ {
		log.StartIter()
		for b := range buckets {
			log.Record(core.CommOp{Kind: core.OpAllReduce, Wire: collective.WireFP32, Bucket: b})
		}
	}
	res := &core.Result{CommLog: log}
	cfg := core.Config{
		World:       world,
		BatchSize:   256,
		Compute:     largeScaleCompute(),
		Overlap:     ddp.OverlapBackward,
		RankCompute: ddp.RankCompute{Multipliers: netsim.OneSlowRank(world, 2)},
	}
	fabric := netsim.NewFabric(netsim.FlatTopology(world, netsim.Gbps, 0))
	alg := collective.MustAlgorithm(collective.DefaultAlgorithm)
	return func() {
		benchSink += uint64(replay.Walk(&cfg, res, fabric, alg, false, replay.Visitor{}))
	}
}

// encodeCases exercises the parallel compression kernels on a 2.5M-element
// bucket: TopK's quickselect sparsification and PacTrain's mask-compact
// ternary encode.
func encodeCases() []PerfCase {
	const n = 2_500_000
	grad := make([]float32, n)
	rng := tensor.NewRNG(7)
	for i := range grad {
		grad[i] = float32(rng.Float64()*2 - 1)
	}
	topk := compress.NewTopK(0.01)
	mc := compress.NewMaskCompact(true, 11)
	mask := make([]int32, 0, n/2)
	for i := int32(0); i < n; i += 2 {
		mask = append(mask, i)
	}
	mc.SetMask(mask, n)
	var buf []float32
	return []PerfCase{
		{Name: "encode-topk-2.5M", Runs: 3, Fn: func() {
			p := topk.Encode(grad)
			benchSink += uint64(len(p.Indices))
		}},
		{Name: "encode-ternary-2.5M", Runs: 3, Fn: func() {
			buf = mc.EncodeInto(grad, buf)
			benchSink += uint64(len(buf))
		}},
	}
}

// withBudget wraps a benchmark body so it runs under an explicit kernel
// budget and restores the previous budget afterwards. Entries pin their
// budget rather than inherit the ambient one because both the experiment
// engine (engine.go) and sibling entries mutate the process-global budget.
func withBudget(budget int, fn func()) func() {
	return func() {
		prev := par.Budget()
		par.SetBudget(budget)
		defer par.SetBudget(prev)
		fn()
	}
}

// matmulCase times iters square C = A·B products through the blocked,
// row-chunked MatMulInto kernel under the full kernel budget.
func matmulCase(size, iters int) func() {
	rng := tensor.NewRNG(13)
	a := tensor.Randn(rng, 1, size, size)
	b := tensor.Randn(rng, 1, size, size)
	c := tensor.New(size, size)
	return withBudget(runtime.GOMAXPROCS(0), func() {
		for i := 0; i < iters; i++ {
			tensor.MatMulInto(c, a, b)
		}
		benchSink += uint64(len(c.Data()))
	})
}

// im2colConvCase times the convolution inner loop as Conv2D.Forward runs
// it — Im2ColInto into a reused column buffer, then the patch × kernel
// matmul — on a VGG-ish shape (batch 8, 16→32 channels, 32×32, 3×3 s1 p1).
func im2colConvCase(iters int) func() {
	const (
		batch, inC, outC = 8, 16, 32
		img, k           = 32, 3
	)
	rng := tensor.NewRNG(17)
	x := tensor.Randn(rng, 1, batch, inC, img, img)
	w := tensor.Randn(rng, 0.1, inC*k*k, outC)
	out := tensor.ConvOutSize(img, k, 1, 1)
	cols := tensor.New(batch*out*out, inC*k*k)
	y := tensor.New(batch*out*out, outC)
	return withBudget(runtime.GOMAXPROCS(0), func() {
		for i := 0; i < iters; i++ {
			tensor.Im2ColInto(cols, x, k, k, 1, 1)
			tensor.MatMulInto(y, cols, w)
		}
		benchSink += uint64(len(y.Data()))
	})
}

// trainStepCase times steps full optimizer steps (ZeroGrad, forward, loss,
// backward, SGD) of a lite-twin model at the given kernel budget. The b1/bN
// twin entries make the budget-scaling of the model-compute path visible in
// the report: on a multi-core host the bN entry runs the same byte-identical
// computation across cores, and on any host the pair pins the chunked
// kernels' overhead at budget 1.
func trainStepCase(build func() *nn.Model, steps, budget int) func() {
	const batch = 8
	m := build()
	rng := tensor.NewRNG(29)
	x := tensor.Randn(rng, 1, batch, 3, 16, 16)
	labels := make([]int, batch)
	for i := range labels {
		labels[i] = rng.Intn(10)
	}
	opt := nn.NewSGD(0.05, 0.9, 5e-4)
	return withBudget(budget, func() {
		for s := 0; s < steps; s++ {
			m.ZeroGrad()
			logits := m.Forward(x, true)
			_, grad := nn.SoftmaxCrossEntropy(logits, labels)
			m.Backward(grad)
			opt.Step(m.Params())
		}
		benchSink += uint64(len(m.Params()))
	})
}

// modelComputeCases pins the model-compute kernel path: blocked matmuls,
// the im2col convolution loop, and end-to-end train steps of the MLP and
// attention lite twins at kernel budgets 1 and GOMAXPROCS.
func modelComputeCases(quick bool) []PerfCase {
	nproc := runtime.GOMAXPROCS(0)
	mlp := func() *nn.Model { return nn.NewMLP(nn.DefaultLiteConfig(10, 1), 64) }
	cases := []PerfCase{
		{Name: "matmul-256", Runs: 3, Fn: matmulCase(256, 10)},
		{Name: "im2col-conv", Runs: 3, Fn: im2colConvCase(10)},
		{Name: "trainstep-mlp-b1", Runs: 3, Fn: trainStepCase(mlp, 20, 1)},
		{Name: "trainstep-mlp", Runs: 3, Fn: trainStepCase(mlp, 20, nproc)},
	}
	if !quick {
		vit := func() *nn.Model {
			cfg := nn.DefaultLiteConfig(10, 1)
			return nn.NewViTLite(cfg, 4*cfg.Width, 4, 2)
		}
		cases = append(cases,
			PerfCase{Name: "matmul-1024", Runs: 3, Fn: matmulCase(1024, 1)},
			PerfCase{Name: "trainstep-attn-b1", Runs: 3, Fn: trainStepCase(vit, 8, 1)},
			PerfCase{Name: "trainstep-attn", Runs: 3, Fn: trainStepCase(vit, 8, nproc)},
		)
	}
	return cases
}

// RunPerf executes the pinned grid and returns its report.
func RunPerf(opt PerfOptions) *BenchReport {
	logf := func(format string, args ...any) {
		if opt.Log != nil {
			fmt.Fprintf(opt.Log, format+"\n", args...)
		}
	}
	grid := "full"
	composeWorlds := []int{64, 1024, 4096}
	if opt.Quick {
		grid = "quick"
		composeWorlds = []int{64, 1024}
	}
	cases := []PerfCase{{Name: BenchCalibration, Runs: 5, Fn: calibrateSpin}}
	for _, w := range composeWorlds {
		// Iterations scale inversely with world so every compose entry does
		// similar total work — a sub-millisecond entry would gate the 10%
		// tolerance on timer noise instead of on the composer.
		iters := 50
		if scaled := 200_000 / w; scaled > iters {
			iters = scaled
		}
		cases = append(cases, PerfCase{Name: fmt.Sprintf("compose-%d", w), Runs: 3, Fn: composeCase(w, iters)})
	}
	cases = append(cases, encodeCases()...)
	cases = append(cases, modelComputeCases(opt.Quick)...)
	cases = append(cases, PerfCase{Name: "largescale", Runs: 3, Fn: func() {
		if _, err := RunLargeScale(Options{Quick: opt.Quick}); err != nil {
			panic(err)
		}
	}})
	cases = append(cases, opt.Extra...)

	report := &BenchReport{Grid: grid, GoMaxProcs: runtime.GOMAXPROCS(0)}
	for _, c := range cases {
		runs := c.Runs
		if runs < 1 {
			runs = 1
		}
		best := math.Inf(1)
		for r := 0; r < runs; r++ {
			if c.Value != nil {
				if v := c.Value(); v < best {
					best = v
				}
				continue
			}
			start := time.Now()
			c.Fn()
			if d := time.Since(start).Seconds(); d < best {
				best = d
			}
		}
		if c.Value != nil {
			logf("perf: %-22s %8.4f (best of %d)", c.Name, best, runs)
		} else {
			logf("perf: %-22s %8.1fms (best of %d)", c.Name, best*1e3, runs)
		}
		report.Entries = append(report.Entries, BenchEntry{Name: c.Name, Seconds: best, Runs: runs})
	}
	return report
}

// BenchPath is the canonical baseline location for a grid.
func BenchPath(grid string) string { return "BENCH_" + grid + ".json" }

// WriteBench serializes a report to path.
func WriteBench(path string, r *BenchReport) error {
	raw, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// LoadBench reads a baseline report.
func LoadBench(path string) (*BenchReport, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r BenchReport
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// CompareBench diffs cur against base and returns one line per regression:
// entries whose calibration-normalized wall time grew by more than tol, and
// baseline entries missing from cur (a dropped benchmark must not slip out
// of the gate). Entries only cur has are ignored, so new benchmarks pass
// against old baselines. The caller treats a non-empty result as a CI
// failure.
func CompareBench(base, cur *BenchReport, tol float64) []string {
	norm := 1.0
	if b, okB := base.Entry(BenchCalibration); okB && b.Seconds > 0 {
		if c, okC := cur.Entry(BenchCalibration); okC && c.Seconds > 0 {
			norm = c.Seconds / b.Seconds
		}
	}
	var regressions []string
	for _, b := range base.Entries {
		if _, ok := cur.Entry(b.Name); !ok {
			regressions = append(regressions, fmt.Sprintf(
				"%s: in the baseline but missing from this run", b.Name))
		}
	}
	for _, c := range cur.Entries {
		if c.Name == BenchCalibration {
			continue
		}
		b, ok := base.Entry(c.Name)
		if !ok || b.Seconds <= 0 {
			continue
		}
		allowed := b.Seconds * norm * (1 + tol)
		if c.Seconds > allowed {
			regressions = append(regressions, fmt.Sprintf(
				"%s: %.1fms vs baseline %.1fms (%.2f× normalized, tolerance %.2f×)",
				c.Name, c.Seconds*1e3, b.Seconds*1e3,
				c.Seconds/(b.Seconds*norm), 1+tol))
		}
	}
	return regressions
}
