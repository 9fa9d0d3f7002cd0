package prune

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"

	"pactrain/internal/nn"
	"pactrain/internal/tensor"
)

func testModel(seed uint64) *nn.Model {
	return nn.NewMLP(nn.LiteConfig{InChannels: 1, ImageSize: 4, Classes: 3, Seed: seed}, 16)
}

func TestNewMaskKeepsEverything(t *testing.T) {
	m := testModel(1)
	mk := NewMask(m)
	if mk.Sparsity() != 0 {
		t.Fatalf("fresh mask sparsity %v", mk.Sparsity())
	}
	kept, total := mk.Count()
	if kept != total || total != m.NumParameters() {
		t.Fatalf("count %d/%d vs %d params", kept, total, m.NumParameters())
	}
}

func TestGlobalMagnitudeRatio(t *testing.T) {
	m := testModel(2)
	for _, ratio := range []float64{0.1, 0.5, 0.9} {
		mk, err := MagnitudePrune(m, ratio, GlobalMagnitude)
		if err != nil {
			t.Fatal(err)
		}
		// Only weight matrices are prunable; sparsity is measured over all
		// params, so compute the prunable-only sparsity.
		prunedPrunable, totalPrunable := 0, 0
		for _, p := range m.Params() {
			if !prunable(p) {
				continue
			}
			for _, k := range mk.Keep[p.Name] {
				totalPrunable++
				if !k {
					prunedPrunable++
				}
			}
		}
		got := float64(prunedPrunable) / float64(totalPrunable)
		if math.Abs(got-ratio) > 0.02 {
			t.Fatalf("ratio %v: pruned %v of prunable weights", ratio, got)
		}
	}
}

func TestGlobalMagnitudePrunesSmallest(t *testing.T) {
	m := testModel(3)
	mk, err := MagnitudePrune(m, 0.5, GlobalMagnitude)
	if err != nil {
		t.Fatal(err)
	}
	// Every pruned weight must be ≤ every kept weight in magnitude
	// (within the shared global threshold).
	var maxPruned, minKept float32 = 0, math.MaxFloat32
	for _, p := range m.Params() {
		if !prunable(p) {
			continue
		}
		keep := mk.Keep[p.Name]
		for i, v := range p.W.Data() {
			a := abs32(v)
			if keep[i] {
				if a < minKept {
					minKept = a
				}
			} else if a > maxPruned {
				maxPruned = a
			}
		}
	}
	if maxPruned > minKept {
		t.Fatalf("pruned weight %v exceeds kept weight %v", maxPruned, minKept)
	}
}

func TestLayerMagnitudeIndependentPerLayer(t *testing.T) {
	m := testModel(4)
	mk, err := MagnitudePrune(m, 0.5, LayerMagnitude)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range m.Params() {
		if !prunable(p) {
			continue
		}
		pruned := 0
		for _, k := range mk.Keep[p.Name] {
			if !k {
				pruned++
			}
		}
		got := float64(pruned) / float64(p.NumElements())
		if math.Abs(got-0.5) > 0.05 {
			t.Fatalf("param %s pruned %v, want ≈0.5", p.Name, got)
		}
	}
}

func TestBiasesExemptFromPruning(t *testing.T) {
	m := testModel(5)
	mk, err := MagnitudePrune(m, 0.9, GlobalMagnitude)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range m.Params() {
		if prunable(p) {
			continue
		}
		for i, k := range mk.Keep[p.Name] {
			if !k {
				t.Fatalf("non-prunable param %s pruned at %d", p.Name, i)
			}
		}
	}
}

func TestApplyZeroesWeights(t *testing.T) {
	m := testModel(6)
	mk, _ := MagnitudePrune(m, 0.5, GlobalMagnitude)
	mk.Apply(m)
	for _, p := range m.Params() {
		keep := mk.Keep[p.Name]
		for i, v := range p.W.Data() {
			if !keep[i] && v != 0 {
				t.Fatalf("pruned weight %s[%d] = %v, want 0", p.Name, i, v)
			}
		}
	}
}

func TestInvalidRatio(t *testing.T) {
	m := testModel(7)
	if _, err := MagnitudePrune(m, 1.0, GlobalMagnitude); err == nil {
		t.Fatal("ratio 1.0 must be rejected")
	}
	if _, err := MagnitudePrune(m, -0.1, GlobalMagnitude); err == nil {
		t.Fatal("negative ratio must be rejected")
	}
}

func TestDeterministicAcrossReplicas(t *testing.T) {
	a, b := testModel(8), testModel(8)
	ma, _ := MagnitudePrune(a, 0.6, GlobalMagnitude)
	mb, _ := MagnitudePrune(b, 0.6, GlobalMagnitude)
	for name, ka := range ma.Keep {
		kb := mb.Keep[name]
		for i := range ka {
			if ka[i] != kb[i] {
				t.Fatalf("masks diverge at %s[%d]", name, i)
			}
		}
	}
}

// TestGraSPQuadratic validates the HVP finite-difference machinery on a
// model where the Hessian is known: for loss L = ½‖Wx‖² summed over a
// batch, the score of Eq. 4 is computable and must correlate strongly with
// the analytic value. Here we simply verify the scores are finite, not all
// equal, and that GraSPPrune respects the ratio.
func TestGraSPQuadratic(t *testing.T) {
	m := testModel(9)
	r := tensor.NewRNG(4)
	x := tensor.Randn(r, 1, 8, 1, 4, 4)
	labels := []int{0, 1, 2, 0, 1, 2, 0, 1}
	computeGrads := func() {
		m.ZeroGrad()
		out := m.Forward(x, true)
		_, grad := nn.SoftmaxCrossEntropy(out, labels)
		m.Backward(grad)
	}
	before := make(map[string][]float32)
	for _, p := range m.Params() {
		before[p.Name] = append([]float32(nil), p.W.Data()...)
	}
	scores := GraSPScores(m, computeGrads)
	// Weights must be restored exactly enough to continue training.
	for _, p := range m.Params() {
		for i, v := range p.W.Data() {
			if math.Abs(float64(v-before[p.Name][i])) > 1e-3 {
				t.Fatalf("GraSP did not restore %s[%d]: %v vs %v", p.Name, i, v, before[p.Name][i])
			}
		}
	}
	distinct := map[float64]bool{}
	for _, s := range scores {
		for _, v := range s {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatal("non-finite GraSP score")
			}
			distinct[v] = true
		}
	}
	if len(distinct) < 10 {
		t.Fatal("GraSP scores suspiciously uniform")
	}

	mk, err := GraSPPrune(m, 0.5, computeGrads)
	if err != nil {
		t.Fatal(err)
	}
	pruned, total := 0, 0
	for _, p := range m.Params() {
		if !prunable(p) {
			continue
		}
		for _, k := range mk.Keep[p.Name] {
			total++
			if !k {
				pruned++
			}
		}
	}
	got := float64(pruned) / float64(total)
	if math.Abs(got-0.5) > 0.05 {
		t.Fatalf("GraSP pruned %v, want ≈0.5", got)
	}
}

func TestFilterPruneRemovesWholeRows(t *testing.T) {
	cfg := nn.DefaultLiteConfig(10, 3)
	m := nn.NewVGGLite(cfg)
	mk, err := FilterPrune(m, 0.25, L2)
	if err != nil {
		t.Fatal(err)
	}
	// For each rank-2 weight, every row must be fully kept or fully pruned.
	anyPruned := false
	for _, p := range m.Params() {
		if p.W.Rank() != 2 || p.W.Dim(0) < 2 {
			continue
		}
		out, in := p.W.Dim(0), p.W.Dim(1)
		keep := mk.Keep[p.Name]
		for f := 0; f < out; f++ {
			first := keep[f*in]
			for i := f*in + 1; i < (f+1)*in; i++ {
				if keep[i] != first {
					t.Fatalf("param %s filter %d partially pruned", p.Name, f)
				}
			}
			if !first {
				anyPruned = true
			}
		}
	}
	if !anyPruned {
		t.Fatal("FilterPrune(0.25) pruned nothing")
	}
}

func TestSnapshotRewind(t *testing.T) {
	m := testModel(10)
	snap := TakeSnapshot(m)
	orig := append([]float32(nil), m.Params()[0].W.Data()...)
	// Perturb.
	for _, p := range m.Params() {
		p.W.Fill(7)
	}
	mk, _ := MagnitudePrune(m, 0, GlobalMagnitude) // all-keep mask
	snap.Rewind(m, mk)
	for i, v := range m.Params()[0].W.Data() {
		if v != orig[i] {
			t.Fatalf("rewind mismatch at %d", i)
		}
	}
	// Rewind with a pruning mask applies the mask after restoring.
	mk2, _ := MagnitudePrune(m, 0.5, GlobalMagnitude)
	snap.Rewind(m, mk2)
	for _, p := range m.Params() {
		keep := mk2.Keep[p.Name]
		for i, v := range p.W.Data() {
			if !keep[i] && v != 0 {
				t.Fatal("rewind did not re-apply mask")
			}
		}
	}
}

// Property: higher pruning ratios produce monotonically sparser masks.
func TestPropertyRatioMonotone(t *testing.T) {
	m := testModel(11)
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		r1 := 0.1 + 0.4*r.Float64()
		r2 := r1 + 0.3
		m1, err1 := MagnitudePrune(m, r1, GlobalMagnitude)
		m2, err2 := MagnitudePrune(m, r2, GlobalMagnitude)
		if err1 != nil || err2 != nil {
			return false
		}
		return m2.Sparsity() >= m1.Sparsity()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: pruned masks are subsets — a weight pruned at a low ratio stays
// pruned at any higher ratio (threshold monotonicity of magnitude pruning).
func TestPropertyMaskNesting(t *testing.T) {
	m := testModel(12)
	lo, _ := MagnitudePrune(m, 0.3, GlobalMagnitude)
	hi, _ := MagnitudePrune(m, 0.7, GlobalMagnitude)
	for name, keepLo := range lo.Keep {
		keepHi := hi.Keep[name]
		for i := range keepLo {
			if !keepLo[i] && keepHi[i] {
				t.Fatalf("weight %s[%d] pruned at 0.3 but kept at 0.7", name, i)
			}
		}
	}
}

func TestMethodString(t *testing.T) {
	if GlobalMagnitude.String() != "global-magnitude" ||
		LayerMagnitude.String() != "layer-magnitude" ||
		GraSP.String() != "grasp" {
		t.Fatal("Method.String broken")
	}
}

// sortedKthMagnitude is the reference threshold selection: sort a copy of
// the magnitudes and index it.
func sortedKthMagnitude(vals []float32, k int) float32 {
	if k <= 0 {
		return -1
	}
	if k >= len(vals) {
		k = len(vals) - 1
	}
	mags := make([]float32, len(vals))
	for i, v := range vals {
		mags[i] = abs32(v)
	}
	sort.Slice(mags, func(i, j int) bool { return mags[i] < mags[j] })
	return mags[k]
}

func TestKthMagnitudeMatchesSortOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	inputs := map[string][]float32{
		"all-zero": make([]float32, 100),
		"single":   {-0.5},
	}
	for _, n := range []int{5, 17, 64, 1000} {
		random := make([]float32, n)
		ties := make([]float32, n)
		for i := range random {
			random[i] = float32(rng.NormFloat64())
			// Few distinct magnitudes of both signs, so most ranks are ties.
			ties[i] = float32(rng.IntN(4)) * float32(1-2*rng.IntN(2))
		}
		inputs[fmt.Sprintf("random-%d", n)] = random
		inputs[fmt.Sprintf("ties-%d", n)] = ties
	}
	for name, vals := range inputs {
		n := len(vals)
		for _, k := range []int{-3, 0, 1, n / 3, n / 2, n - 1, n, n + 5} {
			if got, want := kthMagnitude(vals, k), sortedKthMagnitude(vals, k); got != want {
				t.Fatalf("%s k=%d: got %v, sort oracle %v", name, k, got, want)
			}
		}
	}
}
