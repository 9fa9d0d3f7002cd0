package harness

import (
	"math"

	"pactrain/internal/adaptive"
	"pactrain/internal/audit"
	"pactrain/internal/collective"
	"pactrain/internal/core"
	"pactrain/internal/ddp"
	"pactrain/internal/harness/engine"
	"pactrain/internal/netsim"
	"pactrain/internal/obs"
	"pactrain/internal/simclock"
)

// This file converts recorded training results into obs spans. Traces are
// *derived* — the replay below walks a Result's CommLog with exactly the
// per-rank arithmetic of replayTimeline — rather than collected from live
// trainer callbacks, for the same reason re-costing replays logs instead of
// re-running training: the recorded log is the deterministic ground truth,
// so the exported trace is byte-identical across runs, parallelism budgets,
// and cache states, and tracing costs nothing when disabled (DESIGN.md §11).

// TraceRun replays one recorded run into the tracer's span model on the
// fabric the run's config describes (Topology defaulting to the Fig. 4
// fabric at the config's bottleneck, bandwidth traces applied) — the same
// fabric the trainer priced it on, which is the only fabric an adaptive
// log replays exactly (DESIGN.md §8). A nil tracer, a nil result, or an
// unrecorded run (Config.RecordComm false) is a no-op.
func TraceRun(tr *obs.Tracer, label string, cfg core.Config, res *core.Result) {
	if tr == nil || res == nil || res.CommLog == nil {
		return
	}
	if cfg.Topology == nil {
		bw := cfg.BottleneckBps
		if bw <= 0 {
			bw = 1 * netsim.Gbps
		}
		cfg.Topology = netsim.Fig4Topology(netsim.Fig4Options{BottleneckBps: bw})
	}
	fabric := netsim.NewFabric(cfg.Topology)
	for _, t := range cfg.Traces {
		fabric.SetTrace(t)
	}
	traceRunOn(tr, label, cfg.Fingerprint(), cfg, res, fabric)
}

// traceRunOn is TraceRun with the replay fabric and dedup key explicit: the
// experiment re-cost paths trace their replays on the fabric the cell
// prices (which the config does not name), keyed by label instead of
// fingerprint so a cell replay never collides with the base run's trace.
func traceRunOn(tr *obs.Tracer, label, dedupKey string, cfg core.Config, res *core.Result, fabric *netsim.Fabric) {
	if tr == nil || res == nil || res.CommLog == nil {
		return
	}
	if cfg.Compute.DeviceFLOPS == 0 {
		cfg.Compute = ddp.A40ComputeModel(cfg.Profile.FLOPsPerSample)
	}
	run := tr.StartRun(label, dedupKey, cfg.World, res.CommLog.BucketElems)
	if run == nil {
		return // already traced (same fingerprint under another experiment)
	}
	traceReplay(run, collective.MustAlgorithm(cfg.Collective), res, &cfg, fabric)
}

// traceRuns traces every job of a completed grid, deduplicated by config
// fingerprint so a run shared between experiments (or repeated within one)
// is traced once, under its first label — deterministic because
// experiments run their grids in submission order.
func (o *Options) traceRuns(jobs []engine.Job, results []*core.Result) {
	if o.Tracer == nil {
		return
	}
	for i, job := range jobs {
		if i < len(results) {
			TraceRun(o.Tracer, job.Label, job.Config, results[i])
		}
	}
}

// traceRecost drops a harness-level instant marking a re-costing pass (the
// cells that reuse a recorded run instead of training). Full span replays
// of every cell would dwarf the training traces, so cells are marked and
// only selected ones (see RunStragglers) get replayed in full.
func (o *Options) traceRecost(experiment string, args map[string]any) {
	if o.Tracer == nil {
		return
	}
	full := map[string]any{"experiment": experiment}
	for k, v := range args {
		full[k] = v
	}
	o.Tracer.AddMark("recost", full)
}

// traceReplay walks a recorded log with the per-rank arithmetic of
// replayTimeline — same schedules, same barrier, same in-order stream, same
// coster (live pricing, no memo) — and emits spans instead of accumulating
// a clock. For homogeneous configs this is bit-identical to the scalar fast
// path (a max over equal floats is that float; fwd*1.0 == fwd), so span
// edges equal the re-costed clock exactly (TestTraceMatchesRecost).
func traceReplay(run *obs.RunTrace, alg collective.Algorithm, res *core.Result, cfg *core.Config, fabric *netsim.Fabric) {
	log := res.CommLog
	hosts := fabric.Topo.Hosts()[:cfg.World]
	coster := newOpCoster(alg, fabric, hosts, false)
	var prefix []float64
	if cfg.Overlap == ddp.OverlapBackward && len(log.BucketElems) > 0 {
		prefix = simclock.PrefixShares(log.BucketElems)
	}
	fwd := cfg.Compute.ForwardSeconds(cfg.BatchSize)
	bwd := cfg.Compute.BackwardSeconds(cfg.BatchSize)
	quoter := newDecisionQuoter(cfg, fabric, hosts, log.BucketElems)

	tl := simclock.NewTimeline(cfg.World)
	scheds := make([]simclock.IterSchedule, cfg.World)
	comp := simclock.NewIterComposer(scheds)
	for k, ops := range log.Iters {
		for r := range scheds {
			scale := cfg.RankCompute.Scale(r, k)
			scheds[r] = simclock.NewIterSchedule(tl.Clock(r), fwd*scale, bwd*scale, prefix)
			run.Compute(r, k, tl.Clock(r), fwd*scale, bwd*scale)
		}
		comp.Reset()
		commEnd := math.Inf(-1)
		for _, op := range ops {
			launch := comp.Barrier(op.Bucket)
			if commEnd > launch {
				launch = commEnd
			}
			// The stream-free floor for wait spans is the previous op's end;
			// the first op of an iteration sees an idle (-inf) stream.
			streamFree := commEnd
			end := launch + coster.cost(op, launch)
			name, args := opSpan(op)
			format, quoteArgs := quoter.decide(op, launch)
			if format == "" {
				// Block-sparse ops record no wire format; the op itself is
				// the static decision.
				format = name
			}
			for r := range scheds {
				from, dur := scheds[r].WaitInterval(op.Bucket, streamFree, launch)
				if dur > 0 {
					run.BarrierWait(r, op.Bucket, k, from, launch)
				}
				run.Collective(r, op.Bucket, k, name, launch, end, args)
				if r == 0 {
					// The candidate quotes are replica-identical; carrying
					// them on rank 0 only keeps the trace compact.
					run.Decision(r, op.Bucket, k, launch, format, quoteArgs)
				} else {
					run.Decision(r, op.Bucket, k, launch, format, nil)
				}
			}
			commEnd = end
		}
		comp.FinishInto(tl, commEnd)
	}
}

// opSpan names a recorded op and assembles its collective-span args.
func opSpan(op core.CommOp) (string, map[string]any) {
	args := map[string]any{"wire": op.Wire.Name}
	name := "collective"
	switch op.Kind {
	case core.OpAllReduce:
		name = "all-reduce"
		args["elems"] = op.Elements
	case core.OpAllGather:
		name = "all-gather"
		total := 0
		for _, s := range op.Sizes {
			total += s
		}
		args["elems"] = total
	case core.OpPS:
		name = "ps-aggregate"
		args["elems"] = op.Elements
	case core.OpBlockSparse:
		name = "block-sparse"
		args["elems"] = op.Union * op.BlockSz
	case core.OpBitmapBroadcast:
		name = "bitmap-broadcast"
		args["elems"] = op.Elements
	}
	return name, args
}

// decisionQuoter reprices a recorded adaptive round's candidate set at the
// replayed launch time on a pricing clone of the replay fabric — on the
// recorded fabric that reproduces the quote vector the controller actually
// weighed (the formats' relative costs, adaptive.PriceQuotes). For static
// schemes the wire format itself is the (frozen) decision.
type decisionQuoter struct {
	algo        collective.Algorithm
	pricing     *netsim.Fabric
	hosts       []netsim.NodeID
	candidates  []string
	bucketElems []int
	// nnzs carries each bucket's most recent retained-coordinate count
	// forward (audit.NNZTracker): dense rounds do not encode the mask's NNZ
	// on the wire, so a dense decision is quoted with the last compact
	// round's NNZ (or not at all, before the first one).
	nnzs *audit.NNZTracker
}

func newDecisionQuoter(cfg *core.Config, fabric *netsim.Fabric, hosts []netsim.NodeID, bucketElems []int) *decisionQuoter {
	cands, err := adaptive.CanonicalCandidates(cfg.AdaptCandidates)
	if err != nil {
		cands = adaptive.Formats()
	}
	return &decisionQuoter{
		algo:        collective.MustAlgorithm(cfg.Collective),
		pricing:     fabric.PricingClone(),
		hosts:       hosts,
		candidates:  cands,
		bucketElems: bucketElems,
		nnzs:        audit.NewNNZTracker(),
	}
}

// decide returns the decision instant's format and, for adaptive rounds
// with a known mask size, the repriced candidate quotes.
func (q *decisionQuoter) decide(op core.CommOp, launch float64) (string, map[string]any) {
	if op.Decision == "" {
		return op.Wire.Name, nil
	}
	nnz, ok := q.nnzs.Observe(op)
	n := 0
	if op.Bucket < len(q.bucketElems) {
		n = q.bucketElems[op.Bucket]
	}
	if !ok || n == 0 {
		return op.Decision, nil
	}
	quotes := adaptive.PriceQuotes(q.algo, q.pricing, q.hosts, audit.WireScaleFromOp(op),
		q.candidates, n, nnz, launch)
	m := make(map[string]any, len(quotes))
	for _, quote := range quotes {
		m[quote.Format] = quote.CostSeconds
	}
	return op.Decision, map[string]any{"quotes": m, "nnz": nnz}
}
