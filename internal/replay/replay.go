// Package replay is the one kernel that rebuilds a recorded run's simulated
// clock. Training prices every bucket collective at a launch barrier over
// per-rank timelines (DESIGN.md §9); Walk repeats that arithmetic over the
// run's recorded CommLog — the same batch plan, compute schedules, barrier,
// in-order communication stream and cost functions, with identical operand
// order — so on the recorded fabric it reproduces the training clock bit for
// bit, and on any other fabric, collective algorithm or straggler profile it
// prices what training there would have cost.
//
// Everything that needs a replayed clock observes one Walk through a
// Visitor instead of keeping its own loop: the harness re-coster collects
// the per-iteration clock, the trace exporter emits spans, the decision
// audit fills its counterfactual ledger, and the largescale experiment
// prices synthesized logs with memoized costs.
package replay

import (
	"math"

	"pactrain/internal/collective"
	"pactrain/internal/core"
	"pactrain/internal/ddp"
	"pactrain/internal/netsim"
	"pactrain/internal/simclock"
)

// Visitor observes a Walk. Every callback receives values the kernel has
// already computed and nothing flows back, so a Walk returns the same clock
// under any visitor. Nil callbacks are skipped.
type Visitor struct {
	// Iter opens iteration k with every rank's compute schedule. ranks is
	// valid until the next Iter call.
	Iter func(k int, ranks Ranks)
	// Op reports one recorded op of iteration k: the stream-free floor (the
	// previous op's end; -inf for the iteration's first op), the launch
	// barrier, and the priced duration. The op ends at launch+cost.
	Op func(k int, op core.CommOp, streamFree, launch, cost float64)
	// End closes iteration k at rank 0's clock.
	End func(k int, clock float64)
}

// Ranks is one iteration's per-rank compute schedules.
type Ranks struct {
	world int
	// scheds holds one schedule per rank, or only rank 0's on a homogeneous
	// cluster, where every rank shares it.
	scheds []simclock.IterSchedule
}

// World returns the number of ranks.
func (r Ranks) World() int { return r.world }

// Schedule returns rank's compute schedule for the iteration.
func (r Ranks) Schedule(rank int) simclock.IterSchedule {
	if len(r.scheds) == 1 {
		return r.scheds[0]
	}
	return r.scheds[rank]
}

// Walk replays res's recorded log on fabric under cfg and alg and returns
// rank 0's final clock. Each iteration k:
//
//   - every rank r computes the mini-batch cfg.EpochBatches assigns to k,
//     scaled by cfg.RankCompute.Scale(r, k) — the trainer's expressions, so
//     ragged final batches and stragglers price exactly as they trained;
//   - each op launches at the barrier over the ranks' bucket-ready times
//     (a straggler holds the ring), never before the previous op completed
//     (one in-order communication stream), and costs the recorded op priced
//     at that launch;
//   - every rank's clock ends at its compute floor or the last op's end,
//     whichever is later.
//
// Launch times are derived from cfg, not read from the recorded LaunchAt,
// so a log recorded under one straggler profile and overlap mode re-prices
// under any other (the recorded op sequence is compute-independent for
// every fabric-insensitive scheme, like it is bandwidth-independent).
//
// On a homogeneous cluster (RankCompute disabled, Scale exactly 1) every
// rank's schedule and clock are identical by induction, so the kernel keeps
// one rank's timeline and the O(world) barrier scans disappear; a max over
// equal floats is that float, so the result is bit-identical to the
// per-rank walk. Heterogeneous clusters compose each bucket's barrier once
// per iteration (simclock.IterComposer).
//
// memoize engages per-signature cost memoization (opCoster). Replays of
// recorded runs must leave it off — their contract is bit-exactness — and
// only the cluster-scale pricing path turns it on.
func Walk(cfg *core.Config, res *core.Result, fabric *netsim.Fabric, alg collective.Algorithm, memoize bool, v Visitor) float64 {
	log := res.CommLog
	coster := newOpCoster(alg, fabric, fabric.Topo.Hosts()[:cfg.World], memoize)
	var prefix []float64
	if cfg.Overlap == ddp.OverlapBackward {
		if len(log.BucketElems) == 0 {
			panic("replay: per-bucket overlap needs a log with bucket geometry (recorded pre-timeline?)")
		}
		prefix = simclock.PrefixShares(log.BucketElems)
	}
	plan := cfg.EpochBatches()

	n := cfg.World
	if !cfg.RankCompute.Enabled() {
		n = 1
	}
	tl := simclock.NewTimeline(n)
	scheds := make([]simclock.IterSchedule, n)
	comp := simclock.NewIterComposer(scheds)
	ranks := Ranks{world: cfg.World, scheds: scheds}
	for k, ops := range log.Iters {
		batch := cfg.BatchSize
		if len(plan) > 0 {
			batch = plan[k%len(plan)]
		}
		fwd := cfg.Compute.ForwardSeconds(batch)
		bwd := cfg.Compute.BackwardSeconds(batch)
		for r := range scheds {
			scale := cfg.RankCompute.Scale(r, k)
			scheds[r] = simclock.NewIterSchedule(tl.Clock(r), fwd*scale, bwd*scale, prefix)
		}
		comp.Reset()
		if v.Iter != nil {
			v.Iter(k, ranks)
		}
		commEnd := math.Inf(-1)
		for _, op := range ops {
			launch := comp.Barrier(op.Bucket)
			streamFree := commEnd
			if commEnd > launch {
				// One in-order communication stream: an op never launches
				// before the previous one completed (within a bucket, the
				// follow-up op's ready times are already past the first's
				// end, so this max is exactly the trainer's).
				launch = commEnd
			}
			cost := coster.cost(op, launch)
			if v.Op != nil {
				v.Op(k, op, streamFree, launch, cost)
			}
			commEnd = launch + cost
		}
		comp.FinishInto(tl, commEnd)
		if v.End != nil {
			v.End(k, tl.Clock(0))
		}
	}
	return tl.Clock(0)
}
