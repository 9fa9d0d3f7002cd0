package main

import (
	"math"
	"math/rand"
	"slices"
	"sort"
)

// This file holds the benchmark's own arithmetic: order statistics, the
// percentile validity rule, span self time, open-loop lateness and the
// fixed-count arrival shuffle. stats_test.go pins each of them.

// median returns the middle of xs (the mean of the two middle values for an
// even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the nearest-rank q-quantile of xs (0 < q <= 1): the
// smallest sample with at least a q share of the samples at or below it.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	k := int(math.Ceil(q * float64(len(s))))
	if k < 1 {
		k = 1
	}
	return s[k-1]
}

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// percentileValid reports whether the nearest-rank q-quantile of n samples
// has at least minBeyond samples beyond it — the rule for reporting a high
// percentile at all (p90 needs 100 samples, p99 needs 1000).
func percentileValid(n int, q float64) bool {
	k := int(math.Ceil(q * float64(n)))
	if k < 1 {
		k = 1
	}
	return n-k >= minBeyond
}

// interval is a closed-open stretch of wall time in seconds.
type interval struct{ start, end float64 }

// covered returns the length of the union of ivs clipped to [lo, hi].
// Overlapping intervals — children running in parallel — count once.
func covered(ivs []interval, lo, hi float64) float64 {
	var clipped []interval
	for _, iv := range ivs {
		s, e := math.Max(iv.start, lo), math.Min(iv.end, hi)
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	total := 0.0
	curS, curE := math.Inf(-1), math.Inf(-1)
	for _, iv := range clipped {
		if iv.start > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = iv.start, iv.end
			continue
		}
		curE = math.Max(curE, iv.end)
	}
	if curE > curS {
		total += curE - curS
	}
	return total
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(span interval, children []interval) float64 {
	return span.end - span.start - covered(children, span.start, span.end)
}

// lateness is how far behind schedule each send happened (never negative:
// an early send is on time).
func lateness(due, sent []float64) []float64 {
	out := make([]float64, len(due))
	for i := range due {
		out[i] = math.Max(0, sent[i]-due[i])
	}
	return out
}

// Arrival kinds of the serve-mix workload.
const (
	kindUnique    = "unique"
	kindDuplicate = "duplicate"
	kindRepeat    = "repeat"
)

// arrivalOrder lays out blocks of arrivals, each holding exactly unique,
// duplicate and repeat arrivals in an order shuffled by seed. Shuffling
// within blocks keeps the kinds spread evenly over the run, so a seed moves
// arrivals around without bunching the trainings into a burst. In each block
// a unique comes before the first duplicate, which duplicates it while it is
// still in flight.
func arrivalOrder(blocks, unique, duplicate, repeat int, seed int64) []string {
	if unique < 1 && duplicate > 0 {
		panic("perfbench: duplicates need a unique arrival in their block")
	}
	rng := rand.New(rand.NewSource(seed))
	var out []string
	for b := 0; b < blocks; b++ {
		var block []string
		for _, kc := range []struct {
			kind string
			n    int
		}{{kindUnique, unique}, {kindDuplicate, duplicate}, {kindRepeat, repeat}} {
			for i := 0; i < kc.n; i++ {
				block = append(block, kc.kind)
			}
		}
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		u := slices.Index(block, kindUnique)
		if d := slices.Index(block, kindDuplicate); d >= 0 && d < u {
			block[u], block[d] = block[d], block[u]
		}
		out = append(out, block...)
	}
	return out
}
