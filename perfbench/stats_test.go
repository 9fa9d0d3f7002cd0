package main

import (
	"math"
	"slices"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); !near(got, c.want) {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 100 {
		t.Error("percentile sorted its input in place")
	}
}

// A high percentile is reportable only with ten samples beyond it.
func TestPercentileValidNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{99, 0.90, false}, // rank 90, 9 beyond
		{100, 0.90, true}, // rank 90, 10 beyond
		{20, 0.50, true},  // rank 10, 10 beyond
		{19, 0.50, false}, // rank 10, 9 beyond
		{999, 0.99, false},
		{1000, 0.99, true},
		{0, 0.50, false},
	} {
		if got := percentileValid(c.n, c.q); got != c.want {
			t.Errorf("percentileValid(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
}

// Children that run in parallel overlap; the part they cover counts once.
func TestSelfTimeOverlappingChildren(t *testing.T) {
	parent := interval{0, 10}
	for _, c := range []struct {
		name     string
		children []interval
		want     float64
	}{
		{"no children", nil, 10},
		{"disjoint", []interval{{1, 2}, {4, 6}}, 7},
		{"two at once", []interval{{1, 5}, {2, 6}}, 5},
		{"nested", []interval{{1, 9}, {2, 3}}, 2},
		{"touching", []interval{{1, 3}, {3, 5}}, 6},
		{"spills past parent", []interval{{-2, 1}, {9, 12}}, 8},
		{"covers all", []interval{{0, 6}, {5, 10}}, 0},
	} {
		if got := selfTime(parent, c.children); !near(got, c.want) {
			t.Errorf("%s: selfTime = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestRecorderSelfByName(t *testing.T) {
	r := &recorder{spans: []span{
		{ID: 0, Parent: -1, Name: "harness.fig3", Start: 0, End: 10},
		{ID: 1, Parent: 0, Name: "core.run", Start: 1, End: 6},
		{ID: 2, Parent: 0, Name: "core.run", Start: 2, End: 7},
		{ID: 3, Parent: -1, Name: "harness.fig3", Start: 20, End: 21},
	}}
	got := r.selfByName()
	if !near(got["harness.fig3"], 4+1) || !near(got["core.run"], 10) {
		t.Errorf("selfByName = %v, want harness.fig3 5, core.run 10", got)
	}
}

// Lateness is measured from the due time; early sends are on time.
func TestLatenessFromDueTime(t *testing.T) {
	got := lateness([]float64{0, 1, 2, 3}, []float64{0.5, 1, 1.9, 3.25})
	want := []float64{0.5, 0, 0, 0.25}
	for i := range want {
		if !near(got[i], want[i]) {
			t.Fatalf("lateness = %v, want %v", got, want)
		}
	}
}

func TestArrivalOrderFixedCountsPerBlock(t *testing.T) {
	const blocks, per = 16, 8
	a := arrivalOrder(blocks, 1, 1, 6, 7)
	if len(a) != blocks*per {
		t.Fatalf("len = %d, want %d", len(a), blocks*per)
	}
	for b := 0; b < blocks; b++ {
		block := a[b*per : (b+1)*per]
		m := make(map[string]int)
		for _, k := range block {
			m[k]++
		}
		if m[kindUnique] != 1 || m[kindDuplicate] != 1 || m[kindRepeat] != 6 {
			t.Fatalf("block %d counts = %v, want 1/1/6", b, m)
		}
		if slices.Index(block, kindDuplicate) < slices.Index(block, kindUnique) {
			t.Errorf("block %d: duplicate before its unique: %v", b, block)
		}
	}
	if !slices.Equal(a, arrivalOrder(blocks, 1, 1, 6, 7)) {
		t.Error("same seed gave a different order")
	}
	if slices.Equal(a, arrivalOrder(blocks, 1, 1, 6, 8)) {
		t.Error("different seeds gave the same order")
	}
}
