package harness

import (
	"pactrain/internal/adaptive"
	"pactrain/internal/audit"
	"pactrain/internal/collective"
	"pactrain/internal/core"
	"pactrain/internal/harness/engine"
	"pactrain/internal/netsim"
	"pactrain/internal/obs"
	"pactrain/internal/replay"
)

// This file converts recorded training results into obs spans. Traces are
// *derived* — a visitor of the replay kernel (replay.Walk) turns a Result's
// CommLog into spans — rather than collected from live trainer callbacks,
// for the same reason re-costing replays logs instead of re-running
// training: the recorded log is the deterministic ground truth, so the
// exported trace is byte-identical across runs, parallelism budgets, and
// cache states, and tracing costs nothing when disabled (DESIGN.md §11).

// TraceRun replays one recorded run into the tracer's span model on the
// fabric the trainer priced it on (core.Config.Normalize and NewFabric),
// which is the only fabric an adaptive log replays exactly (DESIGN.md §8).
// A nil tracer, a nil result, an unrecorded run (Config.RecordComm false),
// or a config Run would reject is a no-op.
func TraceRun(tr *obs.Tracer, label string, cfg core.Config, res *core.Result) {
	if tr == nil || res == nil || res.CommLog == nil || cfg.Normalize() != nil {
		return
	}
	traceRunOn(tr, label, cfg.Fingerprint(), cfg, res, cfg.NewFabric())
}

// traceRunOn is TraceRun with the replay fabric and dedup key explicit: the
// experiment re-cost paths trace their replays on the fabric the cell
// prices (which the config does not name), keyed by label instead of
// fingerprint so a cell replay never collides with the base run's trace.
func traceRunOn(tr *obs.Tracer, label, dedupKey string, cfg core.Config, res *core.Result, fabric *netsim.Fabric) {
	if tr == nil || res == nil || res.CommLog == nil || cfg.Normalize() != nil {
		return
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

// traceReplay walks a recorded log through the replay kernel and emits
// spans instead of accumulating a clock: each rank's forward and backward
// compute, the wait between its gradient being ready (and the stream free)
// and the launch barrier, every collective, and the decision instant that
// chose its format. Span edges are the kernel's own floats, so they equal
// the re-costed clock exactly (TestReplayAgreesWithTraining).
func traceReplay(run *obs.RunTrace, alg collective.Algorithm, res *core.Result, cfg *core.Config, fabric *netsim.Fabric) {
	quoter := newDecisionQuoter(cfg, fabric, fabric.Topo.Hosts()[:cfg.World], res.CommLog.BucketElems)
	var ranks replay.Ranks
	replay.Walk(cfg, res, fabric, alg, false, replay.Visitor{
		Iter: func(k int, rs replay.Ranks) {
			ranks = rs
			for r := 0; r < rs.World(); r++ {
				s := rs.Schedule(r)
				run.Compute(r, k, s.Start, s.Fwd, s.Bwd)
			}
		},
		Op: func(k int, op core.CommOp, streamFree, launch, cost float64) {
			end := launch + cost
			name, args := opSpan(op)
			format, quoteArgs := quoter.decide(op, launch)
			if format == "" {
				// Block-sparse ops record no wire format; the op itself is
				// the static decision.
				format = name
			}
			for r := 0; r < ranks.World(); r++ {
				from, dur := ranks.Schedule(r).WaitInterval(op.Bucket, streamFree, launch)
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
		},
	})
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
