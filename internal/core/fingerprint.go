package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"pactrain/internal/collective"
	"pactrain/internal/ddp"
)

// Fingerprint returns a deterministic hex digest identifying everything
// about a run that can influence its Result. Two configs with equal
// fingerprints produce bit-identical results from Run, so the experiment
// engine may train one and share the Result.
//
// The digest is computed over a canonical field-by-field serialization of a
// normalized copy of the config:
//
//   - defaults are applied first (the same normalization Run performs), so a
//     zero field and its explicit default collapse to one key;
//   - fields that the selected scheme provably never reads (the PacTrain
//     pruning knobs on non-PacTrain schemes) are canonicalized away, letting
//     e.g. Fig. 6's ratio-0 all-reduce reference deduplicate against the
//     plain all-reduce baseline;
//   - the topology is serialized structurally (nodes, links, bandwidths,
//     latencies), not by pointer, so independently constructed equal
//     topologies match.
func (c *Config) Fingerprint() string {
	cp := *c
	// Normalize exactly as Run will; an invalid config is fingerprinted
	// as-is (Run will reject it regardless of what the engine does).
	_ = cp.Normalize()
	if !cp.IsPacTrain() {
		// Only the PacTrain hook and its mask construction read these
		// (see buildHook and the pruning step in runWorker).
		cp.PruneRatio = 0
		cp.PruneMethod = 0
		cp.PretrainEpochs = 0
		cp.StableWindow = 0
	}
	if cp.Scheme != SchemeAdaptive {
		// Only the adaptive controller reads these; see also the key
		// emission below — non-adaptive configs never write them, so every
		// pre-adaptive fingerprint (and warm disk cache) is unchanged.
		cp.AdaptMargin = 0
		cp.AdaptDwell = 0
		cp.AdaptCandidates = nil
	}

	var b strings.Builder
	w := func(key string, v any) {
		fmt.Fprintf(&b, "%s=%v\n", key, v)
	}
	w("model", cp.ModelName)
	w("lite", cp.Lite)
	w("data", cp.Data)
	w("test_samples", cp.TestSamples)
	w("world", cp.World)
	w("scheme", cp.Scheme)
	// The collective algorithm changes only the simulated clock, but the
	// clock is part of the Result, so it keys the cache. Normalize already
	// canonicalized "" to "ring"; the ring default is omitted entirely so
	// pre-existing fingerprints (and warm disk caches) survive unchanged.
	if cp.Collective != "" && cp.Collective != collective.DefaultAlgorithm {
		w("collective", cp.Collective)
	}
	w("prune_ratio", cp.PruneRatio)
	w("prune_method", int(cp.PruneMethod))
	w("pretrain_epochs", cp.PretrainEpochs)
	w("stable_window", cp.StableWindow)
	if cp.Scheme == SchemeAdaptive {
		// Normalize already applied the knobs' defaults and canonicalized
		// the candidates, so equivalent spellings collapse.
		w("adapt_margin", cp.AdaptMargin)
		w("adapt_dwell", cp.AdaptDwell)
		w("adapt_candidates", strings.Join(cp.AdaptCandidates, ","))
	}
	w("epochs", cp.Epochs)
	w("batch", cp.BatchSize)
	w("lr", cp.LR)
	w("momentum", cp.Momentum)
	w("weight_decay", cp.WeightDecay)
	w("target_acc", cp.TargetAcc)
	w("eval_every", cp.EvalEvery)
	w("bucket_bytes", cp.BucketBytes)
	w("profile", cp.Profile)
	w("compute", cp.Compute)
	w("overlap", int(cp.Overlap))
	if cp.Overlap == ddp.OverlapBackward {
		// The per-bucket timeline replaced the single-floor overlap
		// approximation; this marker retires any pre-timeline
		// overlap-backward digest (whose clock the old closed form priced)
		// without touching the serialized default, whose key above is
		// byte-identical to every historical fingerprint.
		w("overlap_model", "per-bucket")
	}
	if cp.RankCompute.Enabled() {
		// Emitted only when heterogeneity is on (Normalize canonicalized the
		// knobs first), so homogeneous fingerprints — and every warm disk
		// cache — are untouched.
		w("rank_mult", cp.RankCompute.Multipliers)
		w("rank_jitter", cp.RankCompute.JitterFrac)
		w("rank_jitter_seed", cp.RankCompute.JitterSeed)
	}
	w("seed", cp.Seed)
	w("record_comm", cp.RecordComm)

	if cp.Topology != nil {
		fmt.Fprintf(&b, "topo_nodes=%d\n", len(cp.Topology.Nodes))
		for _, n := range cp.Topology.Nodes {
			fmt.Fprintf(&b, "node=%d,%d\n", n.ID, n.Kind)
		}
		for i, l := range cp.Topology.Links {
			fmt.Fprintf(&b, "link=%d,%d,%d,%v,%v\n", i, l.A, l.B, l.BandwidthBps, l.LatencySec)
		}
	}
	for _, tr := range cp.Traces {
		fmt.Fprintf(&b, "trace=%d\n", tr.LinkIndex)
		for _, s := range tr.Segments {
			fmt.Fprintf(&b, "seg=%v,%v\n", s.UntilSec, s.Scale)
		}
	}

	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:8])
}
