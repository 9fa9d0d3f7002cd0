package simclock

import (
	"fmt"
	"math"
	"testing"

	"pactrain/internal/tensor"
)

// naiveBarrier is the pre-composer arithmetic: Timeline.LaunchTime over the
// ranks' ReadyAt.
func naiveBarrier(tl *Timeline, scheds []IterSchedule, bucket int) float64 {
	return tl.LaunchTime(func(r int) float64 { return scheds[r].ReadyAt(bucket) })
}

func randomScheds(world int, prefix []float64, seed uint64, homogeneous bool) []IterSchedule {
	rng := tensor.NewRNG(seed)
	scheds := make([]IterSchedule, world)
	base := IterSchedule{Start: rng.Float64(), Fwd: rng.Float64(), Bwd: rng.Float64(), prefix: prefix}
	for r := range scheds {
		if homogeneous {
			scheds[r] = base
			continue
		}
		scheds[r] = NewIterSchedule(rng.Float64()*10, rng.Float64(), rng.Float64()*2, prefix)
	}
	return scheds
}

func TestComposerBarrierMatchesNaiveScan(t *testing.T) {
	t.Parallel()
	prefix := PrefixShares([]int{4, 3, 2, 1})
	for _, tc := range []struct {
		name        string
		prefix      []float64
		homogeneous bool
	}{
		{"heterogeneous-overlap", prefix, false},
		{"heterogeneous-serialized", nil, false},
		{"homogeneous-overlap", prefix, true},
		{"homogeneous-serialized", nil, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, world := range []int{1, 2, 5, 64} {
				tl := NewTimeline(world)
				scheds := randomScheds(world, tc.prefix, uint64(world)+7, tc.homogeneous)
				comp := NewIterComposer(scheds)
				buckets := 4
				if tc.prefix == nil {
					buckets = 1 // ReadyAt ignores the bucket when serialized
				}
				// Query out of order and repeatedly: memoization must not
				// change any value.
				for _, b := range []int{buckets - 1, 0, buckets - 1, buckets / 2, 0} {
					got := comp.Barrier(b)
					want := naiveBarrier(tl, scheds, b)
					if got != want {
						t.Fatalf("world %d bucket %d: composer %v, naive %v", world, b, got, want)
					}
				}
			}
		})
	}
}

func TestComposerResetRereadsSchedules(t *testing.T) {
	t.Parallel()
	prefix := PrefixShares([]int{2, 1})
	scheds := randomScheds(8, prefix, 3, false)
	comp := NewIterComposer(scheds)
	before := comp.Barrier(1)
	// Rewrite schedules in place — the composer must serve stale barriers
	// until Reset, then the fresh ones (the harness calls Reset per iter).
	for r := range scheds {
		scheds[r] = NewIterSchedule(scheds[r].Start+100, scheds[r].Fwd, scheds[r].Bwd, prefix)
	}
	if got := comp.Barrier(1); got != before {
		t.Fatalf("cached barrier changed without Reset: %v vs %v", got, before)
	}
	comp.Reset()
	tl := NewTimeline(8)
	if got, want := comp.Barrier(1), naiveBarrier(tl, scheds, 1); got != want {
		t.Fatalf("post-Reset barrier %v, want %v", got, want)
	}
}

func TestComposerFinishInto(t *testing.T) {
	t.Parallel()
	scheds := randomScheds(6, nil, 11, false)
	comp := NewIterComposer(scheds)
	tl := NewTimeline(6)
	commEnd := 42.0
	comp.FinishInto(tl, commEnd)
	for r := range scheds {
		if got, want := tl.Clock(r), scheds[r].Finish(commEnd); got != want {
			t.Fatalf("rank %d clock %v, want %v", r, got, want)
		}
	}
}

func TestTimelineMaxIncremental(t *testing.T) {
	t.Parallel()
	rescan := func(tl *Timeline) float64 {
		m := math.Inf(-1)
		for r := 0; r < tl.World(); r++ {
			if c := tl.Clock(r); c > m {
				m = c
			}
		}
		return m
	}
	tl := NewTimeline(5)
	if got := tl.Max(); got != 0 {
		t.Fatalf("fresh timeline max %v", got)
	}
	rng := tensor.NewRNG(13)
	for step := 0; step < 200; step++ {
		r := int(rng.Uint64() % 5)
		switch step % 3 {
		case 0:
			tl.Advance(r, rng.Float64())
		case 1:
			tl.Set(r, rng.Float64()*20)
		case 2:
			// Lower the current maximum holder — the dirty path.
			maxRank := 0
			for i := 1; i < 5; i++ {
				if tl.Clock(i) > tl.Clock(maxRank) {
					maxRank = i
				}
			}
			tl.Set(maxRank, tl.Clock(maxRank)/2)
		}
		if got, want := tl.Max(), rescan(tl); got != want {
			t.Fatalf("step %d: cached max %v, rescan %v", step, got, want)
		}
	}
}

func BenchmarkIterComposer(b *testing.B) {
	for _, world := range []int{64, 1024, 4096} {
		b.Run(fmt.Sprintf("world=%d", world), func(b *testing.B) {
			buckets := []int{4, 3, 2, 1, 4, 3, 2, 1, 4, 3, 2}
			prefix := PrefixShares(buckets)
			mult := make([]float64, world)
			for r := range mult {
				mult[r] = 1 + float64(r%7)/10
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tl := NewTimeline(world)
				scheds := make([]IterSchedule, world)
				comp := NewIterComposer(scheds)
				for k := 0; k < 10; k++ {
					for r := range scheds {
						scheds[r] = NewIterSchedule(tl.Clock(r), 0.006*mult[r], 0.012*mult[r], prefix)
					}
					comp.Reset()
					commEnd := math.Inf(-1)
					for bkt := range buckets {
						launch := comp.Barrier(bkt)
						if commEnd > launch {
							launch = commEnd
						}
						commEnd = launch + 0.003
					}
					comp.FinishInto(tl, commEnd)
				}
				benchSink = tl.Max()
			}
		})
	}
}

var benchSink float64
