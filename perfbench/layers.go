package main

import (
	"math"

	"pactrain/internal/core"
	"pactrain/internal/harness"
	"pactrain/internal/harness/engine"
)

// perLayer lists every per-layer metric of a traced run with its unit, in
// the order of BENCHMARK.json (layers_test.go keeps the two in step). A
// layer a workload does not exercise reports 0.
func perLayer() [][2]string {
	names := [][2]string{
		{"nn.forward_s", "s"}, {"nn.backward_s", "s"}, {"nn.sgd_s", "s"}, {"nn.allocs_per_step", "count"},
		{"prune.magnitude_s", "s"},
		{"ddp.bucket_s", "s"}, {"gse.enforce_s", "s"}, {"masktracker.observe_s", "s"},
		{"compress.encode_s", "s"}, {"compress.payload_bytes", "bytes"},
		{"collective.allreduce_s", "s"}, {"collective.ops", "count"}, {"collective.price_s", "s"},
		{"core.run_s", "s"}, {"core.runs", "count"}, {"core.iters", "count"},
		{"core.wire_bytes", "bytes"}, {"core.unattributed_s", "s"},
	}
	for _, id := range experimentIDs {
		names = append(names, [2]string{"harness." + id + ".self_s", "s"})
	}
	names = append(names, [][2]string{
		{"harness.render_s", "s"},
		{"obs.trace_s", "s"}, {"obs.spans", "count"}, {"audit.replay_s", "s"}, {"audit.ledgers", "count"},
		{"engine.submitted", "count"}, {"engine.trained", "count"}, {"engine.deduped", "count"},
		{"engine.cache_hits", "count"}, {"engine.peer_hits", "count"}, {"engine.peer_misses", "count"},
		{"engine.peer_errors", "count"}, {"engine.reuse_ratio", "ratio"},
		{"engine.slot_wait_s", "s"}, {"engine.lookup_s", "s"},
		{"serve.submit_s", "s"}, {"serve.queue_wait_s", "s"}, {"serve.run_s", "s"}, {"serve.fetch_s", "s"},
		{"serve.refused", "count"}, {"serve.coalesced", "count"}, {"serve.queue_depth_max", "count"},
		{"gen.late_p90_s", "s"}, {"trace.overhead_s", "s"},
	}...)
	return names
}

// experimentIDs are the registry ids the harness self-time metrics cover.
// A traced grid run fails its checks if the registry drifts from this list.
var experimentIDs = []string{
	"table1", "fig3", "fig5", "fig6", "ablation-mt", "ablation-tern", "ablation-topo",
	"ablation-varbw", "collectives", "adaptive", "stragglers", "largescale",
}

// layerSet accumulates a traced run's per-layer values.
type layerSet map[string]float64

// metrics renders the set in perLayer order, filling unmeasured layers
// with 0.
func (l layerSet) metrics() map[string]metric {
	out := make(map[string]metric)
	for _, nu := range perLayer() {
		out[nu[0]] = metric{l[nu[0]], nu[1]}
	}
	return out
}

// addProbes records the layer probes' totals.
func (l layerSet) addProbes(p probeTotals) {
	l["nn.forward_s"] += p.forward
	l["nn.backward_s"] += p.backward
	l["nn.sgd_s"] += p.sgd
	if p.steps > 0 {
		l["nn.allocs_per_step"] = p.allocs / p.steps
	}
	l["prune.magnitude_s"] += p.prune
	l["ddp.bucket_s"] += p.bucket
	l["gse.enforce_s"] += p.enforce
	l["masktracker.observe_s"] += p.observe
	l["compress.encode_s"] += p.encode
	l["compress.payload_bytes"] += p.payloadBytes
	l["collective.allreduce_s"] += p.allreduce
	l["collective.ops"] += p.allreduceOps
}

// addRuns records core.Run work: the trainings' busy seconds and their
// Results. Unattributed time is what the probes do not explain: each
// iteration runs World replicas of the probed step, spread over the cores
// one training had, plus one all-reduce per bucket.
func (l layerSet) addRuns(runSeconds float64, results []*core.Result, p probeTotals, coresPerRun int) {
	l["core.run_s"] += runSeconds
	l["core.runs"] += float64(len(results))
	attributed := 0.0
	for _, res := range results {
		if res == nil {
			continue
		}
		world := len(res.WeightChecksums)
		l["core.iters"] += float64(res.Iterations)
		if res.CommLog != nil {
			for _, ops := range res.CommLog.Iters {
				l["core.wire_bytes"] += core.WireBytesPerWorker(ops, world)
			}
		}
		share := float64(world) / math.Min(float64(world), float64(max(coresPerRun, 1)))
		attributed += float64(res.Iterations) * (p.perIter*share + p.allreducePerIter)
	}
	l["core.unattributed_s"] += runSeconds - attributed
}

// addEngine records an engine's counter deltas.
func (l layerSet) addEngine(s engine.Stats) {
	l["engine.submitted"] += float64(s.Submitted)
	l["engine.trained"] += float64(s.Trained)
	l["engine.deduped"] += float64(s.Deduped)
	l["engine.cache_hits"] += float64(s.CacheHits)
	l["engine.peer_hits"] += float64(s.PeerHits)
	l["engine.peer_misses"] += float64(s.PeerMisses)
	l["engine.peer_errors"] += float64(s.PeerErrors)
	if sub := l["engine.submitted"]; sub > 0 {
		l["engine.reuse_ratio"] = (sub - l["engine.trained"]) / sub
	}
}

// addSpans records the self time of the recorder's harness spans.
func (l layerSet) addSpans(self map[string]float64) {
	for _, id := range experimentIDs {
		l["harness."+id+".self_s"] += self["harness."+id]
	}
	l["harness.render_s"] += self["harness.render"]
}

// registryMatches reports whether the experiment registry still lists
// exactly experimentIDs.
func registryMatches() bool {
	ids := harness.ExperimentIDs()
	if len(ids) != len(experimentIDs) {
		return false
	}
	for i := range ids {
		if ids[i] != experimentIDs[i] {
			return false
		}
	}
	return true
}
