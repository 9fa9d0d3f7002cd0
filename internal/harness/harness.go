// Package harness drives the experiments that regenerate every table and
// figure of the PacTrain paper's evaluation (§IV): the method-property
// matrix (Table 1), end-to-end relative TTA across bandwidths (Fig. 3),
// accuracy-vs-time curves for ResNet152 (Fig. 5), the pruning-ratio sweep
// (Fig. 6), and the design-choice ablations listed in DESIGN.md §3.
//
// Each experiment trains lite-twin models for real and costs communication
// through the simulated Fig. 4 fabric. Because the convergence trajectory
// is bandwidth-independent (the synchronization is bit-exact regardless of
// link speed), bandwidth sweeps train once per (model, scheme) pair and
// re-cost the recorded per-iteration communication under each bandwidth —
// producing identical results to re-running at a fraction of the wall
// time.
//
// Every experiment expresses its grid as declarative jobs submitted to the
// shared scheduler in internal/harness/engine, which deduplicates identical
// (model, scheme, seed) trainings across experiments, bounds parallelism,
// and optionally caches results on disk (Options.Parallelism, CacheDir,
// Engine). Jobs are submitted and assembled in a fixed order, so reports
// are byte-identical to the historical serial path at any parallelism.
package harness

import (
	"fmt"
	"io"

	"pactrain/internal/audit"
	"pactrain/internal/collective"
	"pactrain/internal/core"
	"pactrain/internal/data"
	"pactrain/internal/ddp"
	"pactrain/internal/harness/engine"
	"pactrain/internal/metrics"
	"pactrain/internal/netsim"
	"pactrain/internal/nn"
	"pactrain/internal/obs"
	"pactrain/internal/replay"
)

// Workload couples a paper model with its calibrated training recipe and
// target accuracy. Targets are per-model, as in the paper's TTA definition
// (Fig. 5 names 84% for ResNet152), and sit comfortably below what the
// *pruned* twin reaches — the paper's own targets likewise sit well under
// the models' final accuracies. Width sets the lite twin's base channel
// count: wide enough that 50% pruning costs little accuracy, mirroring the
// overcapacity of the real 11M–144M-parameter models (DESIGN.md §1).
type Workload struct {
	Model     string
	LR        float64
	TargetAcc float64
	Epochs    int
	Width     int
}

// PaperWorkloads lists the four evaluation models with recipes calibrated
// on the synthetic task (see DESIGN.md §1 on the substitution).
func PaperWorkloads() []Workload {
	return []Workload{
		{Model: "VGG19", LR: 0.05, TargetAcc: 0.80, Epochs: 10, Width: 12},
		{Model: "ResNet18", LR: 0.10, TargetAcc: 0.60, Epochs: 12, Width: 10},
		{Model: "ResNet152", LR: 0.10, TargetAcc: 0.68, Epochs: 12, Width: 10},
		{Model: "ViT-Base-16", LR: 0.05, TargetAcc: 0.50, Epochs: 12, Width: 12},
	}
}

// QuickWorkloads is a fast subset for smoke runs: the MLP twin stands in
// for every profile so a full experiment finishes in seconds.
func QuickWorkloads() []Workload {
	return []Workload{
		{Model: "MLP", LR: 0.05, TargetAcc: 0.70, Epochs: 6, Width: 8},
	}
}

// Options configures an experiment run.
type Options struct {
	// Quick substitutes the fast workload set and smaller sweeps.
	Quick bool
	// World is the worker count (default 8, the paper's testbed size).
	World int
	// Samples is the synthetic training-set size (default 768, or 320 in
	// Quick mode).
	Samples int
	// Seed drives all randomness.
	Seed uint64
	// Collective selects the collective algorithm every job config trains
	// and re-costs under ("ring", "tree", "hierarchical"; empty = ring, the
	// paper's flat ring and the historical behavior). "ring" normalizes to
	// empty so both spellings share cache keys and coalesce in the service.
	Collective string
	// Overlap selects the backward-overlap model every job config trains
	// and re-costs under ("none", "backward"; empty = none, the historical
	// serialized clock). "none" normalizes to empty so both spellings share
	// cache keys and coalesce in the service. "backward" prices each DDP
	// bucket's collective at its per-rank gradient-ready barrier (DESIGN.md
	// §9).
	Overlap string
	// Log receives progress lines; nil discards them.
	Log io.Writer

	// Parallelism bounds concurrent training jobs (default 1, the serial
	// pre-engine behavior). Reports are byte-identical at any setting: jobs
	// are keyed deterministically and assembled in submission order.
	Parallelism int
	// CacheDir enables the on-disk result cache when non-empty, so repeated
	// invocations re-cost recorded runs instead of re-training them.
	CacheDir string
	// Engine, when non-nil, is the shared scheduler to submit jobs to;
	// sharing one engine across experiments deduplicates identical
	// (model, scheme, seed) trainings between them. When nil, each
	// experiment builds a private engine from Parallelism/CacheDir/Log.
	Engine *engine.Engine

	// Tracer, when non-nil, receives a per-rank span replay of every run an
	// experiment trains or re-costs (trace.go). Observation-only: reports
	// and fingerprints are byte-identical with or without it, and serve's
	// coalescing key ignores it (pointer field, like Engine).
	Tracer *obs.Tracer

	// Auditor, when non-nil, collects a counterfactual decision audit of
	// every controller-driven run an experiment trains (audit.go; currently
	// the adaptive experiment's cells and static baselines). Observation-only
	// like Tracer: reports and fingerprints are byte-identical with or
	// without it, and serve's coalescing key ignores it.
	Auditor *audit.Collector
	// AuditStaleness ages the audit's controller-view pricing by this many
	// seconds (audit.Options.StalenessSec): 0 prices at launch, where the
	// calibration error is exactly zero on the recorded fabric.
	AuditStaleness float64
}

// Normalized returns the options with every default applied — the
// canonical form under which two Options describe the same experiment
// grid. The serve subsystem coalesces identical submissions by comparing
// the value fields (Quick, World, Samples, Seed, Collective) of normalized
// options.
func (o Options) Normalized() Options {
	o.defaults()
	return o
}

func (o *Options) defaults() {
	if o.World == 0 {
		o.World = 8
	}
	if o.Samples == 0 {
		if o.Quick {
			o.Samples = 320
		} else {
			o.Samples = 768
		}
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Collective == collective.DefaultAlgorithm {
		o.Collective = ""
	}
	if o.Overlap == ddp.OverlapNone.String() {
		o.Overlap = ""
	}
	if o.Log == nil {
		o.Log = io.Discard
	}
	if o.Parallelism < 1 {
		o.Parallelism = 1
	}
}

// NewEngine builds the scheduler an Options describes. The experiment
// drivers (cmd/pactrain-bench, tests) construct one and set Options.Engine
// so every experiment in the process shares its dedup table and cache.
func NewEngine(opt Options) *engine.Engine {
	opt.defaults()
	return engine.New(engine.Options{
		Parallelism: opt.Parallelism,
		CacheDir:    opt.CacheDir,
		Log:         opt.Log,
	})
}

// engine returns the shared scheduler, or a private one for a standalone
// experiment call.
func (o *Options) engine() *engine.Engine {
	if o.Engine != nil {
		return o.Engine
	}
	return NewEngine(*o)
}

func (o *Options) logf(format string, args ...any) {
	fmt.Fprintf(o.Log, format+"\n", args...)
}

func (o *Options) workloads() []Workload {
	if o.Quick {
		return QuickWorkloads()
	}
	return PaperWorkloads()
}

// baseConfig builds the core training configuration for a workload/scheme
// pair.
func baseConfig(w Workload, scheme string, opt Options) core.Config {
	cfg := core.DefaultConfig(w.Model, scheme)
	cfg.World = opt.World
	if w.Width > 0 {
		cfg.Lite.Width = w.Width
	}
	cfg.Data = data.CIFAR10Like(opt.Samples, 11+opt.Seed)
	cfg.TestSamples = 200
	cfg.Epochs = w.Epochs
	if opt.Quick {
		cfg.Epochs = min(w.Epochs, 6)
	}
	cfg.BatchSize = 8
	// Round the dataset up so every shard divides into full batches. This
	// keeps configs, fingerprints and cached runs for odd -samples values
	// stable; re-costing exactness does not depend on it, since the replay
	// kernel prices ragged batches as trained (core.Config.EpochBatches).
	// The presets (768/320/test sizes) already divide.
	chunk := cfg.World * cfg.BatchSize
	cfg.Data.Samples = ((cfg.Data.Samples + chunk - 1) / chunk) * chunk
	cfg.LR = w.LR
	cfg.TargetAcc = w.TargetAcc
	cfg.Seed = opt.Seed
	cfg.Collective = opt.Collective
	// Options.Overlap was validated by every public entry point (the CLIs
	// exit 2, the service rejects with 400); MustOverlap flags programmer
	// error on the direct-API path.
	cfg.Overlap = ddp.MustOverlap(opt.Overlap)
	cfg.RecordComm = true
	cfg.BottleneckBps = 1 * netsim.Gbps
	// Evaluate twice per epoch so TTA crossings resolve at sub-epoch
	// granularity.
	itersPerEpoch := cfg.Data.Samples / (cfg.World * cfg.BatchSize)
	if itersPerEpoch > 1 {
		cfg.EvalEvery = itersPerEpoch / 2
	}
	return cfg
}

// Fig3Schemes lists the aggregation schemes of Fig. 3 in plot order. The
// paper's "PacTrain" bar is the pruning+ternary configuration of §III-D.
func Fig3Schemes() []string {
	return []string{"all-reduce", "fp16", "topk-0.1", "topk-0.01", "pactrain-ternary"}
}

// DisplayName maps scheme identifiers to the labels used in the paper's
// figures.
func DisplayName(scheme string) string {
	switch scheme {
	case "pactrain-ternary", "pactrain":
		return "PacTrain"
	case "terngrad":
		return "Terngrad"
	case "thc":
		return "THC"
	case "dgc-0.01":
		return "DGC"
	case "omnireduce":
		return "OmniReduce"
	case "zen":
		return "Zen"
	}
	return scheme
}

// recostCum rebuilds a recorded run's cumulative simulated clock on an
// arbitrary fabric (bandwidth traces included): cum[i] is rank 0's simulated
// time after i iterations of compute plus re-priced communication, under
// the collective algorithm the run's config names. The replay kernel
// repeats the trainer's arithmetic, so re-costing on a fabric identical to
// the training fabric reproduces the recorded clock exactly (see
// TestRecostReproducesTraining and TestReplayAgreesWithTraining).
func recostCum(res *core.Result, cfg *core.Config, fabric *netsim.Fabric) []float64 {
	return recostCumWith(collective.MustAlgorithm(cfg.Collective), res, cfg, fabric)
}

// recostCumWith is recostCum under an explicit collective algorithm — the
// recorded operations are algorithm-independent, so the collectives
// experiment prices one training under every algorithm.
func recostCumWith(alg collective.Algorithm, res *core.Result, cfg *core.Config, fabric *netsim.Fabric) []float64 {
	cum := make([]float64, len(res.CommLog.Iters)+1)
	replay.Walk(cfg, res, fabric, alg, false, replay.Visitor{
		End: func(k int, clock float64) { cum[k+1] = clock },
	})
	return cum
}

// ttaFromCum reads the time-to-target off a rebuilt clock: the re-costed
// time of the first curve point at or above target.
func ttaFromCum(res *core.Result, cum []float64, target float64) (float64, bool) {
	for _, p := range res.Curve.Points {
		if p.Acc >= target {
			if p.Iter < len(cum) {
				return cum[p.Iter], true
			}
			return cum[len(cum)-1], true
		}
	}
	return cum[len(cum)-1], false
}

// recostTTA recomputes a recorded run's accuracy-vs-time curve under a
// different bottleneck bandwidth and returns the time to target. The
// convergence trajectory (accuracy per iteration) is reused; only the
// clock is rebuilt from compute time plus the re-priced communication ops.
func recostTTA(res *core.Result, cfg *core.Config, bottleneck float64, target float64) (float64, bool) {
	topo := netsim.Fig4Topology(netsim.Fig4Options{BottleneckBps: bottleneck})
	return recostOnTopology(res, cfg, topo, target)
}

// rejectFabricSensitive makes Config.FabricSensitive load-bearing on the
// cross-network sweep paths: a multi-candidate adaptive log replays
// decisions the controller would not have made on a different fabric, so
// re-costing it across networks silently produces wrong clocks (DESIGN.md
// §8). Experiments must retrain such cells per operating point, as
// RunAdaptive does. Same-fabric replay (recostCum on the recorded fabric)
// remains valid and is not guarded.
func rejectFabricSensitive(cfg *core.Config) {
	if cfg.FabricSensitive() {
		panic(fmt.Sprintf("harness: %q run is fabric-sensitive; retrain per operating point instead of re-costing across networks (DESIGN.md §8)", cfg.Scheme))
	}
}

// trainJob builds the engine job for one (workload, scheme) training with
// communication recording.
func trainJob(exp string, w Workload, scheme string, opt Options) engine.Job {
	return engine.Job{
		Label:  fmt.Sprintf("%s %s/%s", exp, w.Model, DisplayName(scheme)),
		Config: baseConfig(w, scheme, opt),
	}
}

// renderRelTTA formats a relative-TTA cell, flagging runs that never
// reached the target the way the paper's log-scale bars saturate.
func renderRelTTA(rel float64, reached bool) string {
	if !reached {
		return fmt.Sprintf(">%.3f", rel)
	}
	return fmt.Sprintf("%.3f", rel)
}

// bandwidthLabel pretty-prints a link speed.
func bandwidthLabel(bps float64) string {
	if bps >= netsim.Gbps {
		return fmt.Sprintf("%g Gbps", bps/netsim.Gbps)
	}
	return fmt.Sprintf("%g Mbps", bps/netsim.Mbps)
}

// profileFor fetches the communication profile for table rendering.
func profileFor(model string) nn.CommProfile {
	p, err := nn.ProfileByName(model)
	if err != nil {
		return nn.CommProfile{Name: model, Params: 1_000_000, FLOPsPerSample: 100_000_000}
	}
	return p
}

// tableFromCurve renders a curve as a two-column table (time, accuracy).
func tableFromCurve(title string, c *metrics.Curve) *metrics.Table {
	tb := metrics.NewTable(title, "sim time", "accuracy")
	for _, p := range c.Points {
		tb.AddRow(metrics.FormatSeconds(p.SimTime), fmt.Sprintf("%.3f", p.Acc))
	}
	return tb
}
