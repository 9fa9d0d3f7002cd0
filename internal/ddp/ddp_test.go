package ddp

import (
	"math"
	"strings"
	"testing"

	"pactrain/internal/nn"
	"pactrain/internal/prune"
	"pactrain/internal/simclock"
	"pactrain/internal/tensor"
)

func testModel(seed uint64) *nn.Model {
	return nn.NewMLP(nn.LiteConfig{InChannels: 1, ImageSize: 4, Classes: 3, Seed: seed}, 16)
}

func TestBucketsCoverAllParamsOnce(t *testing.T) {
	m := testModel(1)
	buckets := BuildBuckets(m, 1024)
	seen := map[string]int{}
	total := 0
	for _, b := range buckets {
		total += b.Elements()
		for _, p := range b.Params {
			seen[p.Name]++
		}
	}
	if total != m.NumParameters() {
		t.Fatalf("buckets cover %d scalars, want %d", total, m.NumParameters())
	}
	for name, n := range seen {
		if n != 1 {
			t.Fatalf("param %s in %d buckets", name, n)
		}
	}
}

func TestBucketsReverseOrder(t *testing.T) {
	m := testModel(2)
	buckets := BuildBuckets(m, 1<<30) // one big bucket
	if len(buckets) != 1 {
		t.Fatalf("expected 1 bucket, got %d", len(buckets))
	}
	params := m.Params()
	b := buckets[0]
	if b.Params[0].Name != params[len(params)-1].Name {
		t.Fatalf("first bucket param %s, want last registered %s",
			b.Params[0].Name, params[len(params)-1].Name)
	}
	if b.Params[len(b.Params)-1].Name != params[0].Name {
		t.Fatal("last bucket param should be first registered")
	}
}

func TestBucketByteCap(t *testing.T) {
	m := testModel(3)
	capBytes := 512
	buckets := BuildBuckets(m, capBytes)
	if len(buckets) < 2 {
		t.Fatalf("expected multiple buckets under %dB cap, got %d", capBytes, len(buckets))
	}
	for _, b := range buckets {
		if len(b.Params) > 1 && b.Elements()*4 > capBytes {
			t.Fatalf("bucket %d exceeds cap with %d bytes", b.Index, b.Elements()*4)
		}
	}
}

func TestOversizeParamGetsOwnBucket(t *testing.T) {
	m := testModel(4)
	buckets := BuildBuckets(m, 8) // smaller than any tensor
	for _, b := range buckets {
		if len(b.Params) != 1 {
			t.Fatalf("bucket %d has %d params, want 1", b.Index, len(b.Params))
		}
	}
}

func TestGatherScatterRoundTrip(t *testing.T) {
	m := testModel(5)
	r := tensor.NewRNG(9)
	for _, p := range m.Params() {
		for i := range p.Grad.Data() {
			p.Grad.Data()[i] = float32(r.NormFloat64())
		}
	}
	orig := map[string][]float32{}
	for _, p := range m.Params() {
		orig[p.Name] = append([]float32(nil), p.Grad.Data()...)
	}
	buckets := BuildBuckets(m, 1024)
	for _, b := range buckets {
		b.Gather()
	}
	m.ZeroGrad()
	for _, b := range buckets {
		b.Scatter()
	}
	for _, p := range m.Params() {
		for i, v := range p.Grad.Data() {
			if v != orig[p.Name][i] {
				t.Fatalf("round trip lost %s[%d]", p.Name, i)
			}
		}
	}
}

func TestScale(t *testing.T) {
	m := testModel(6)
	buckets := BuildBuckets(m, 1<<30)
	b := buckets[0]
	for i := range b.Flat {
		b.Flat[i] = 8
	}
	b.Scale(0.125)
	for _, v := range b.Flat {
		if v != 1 {
			t.Fatalf("scale wrong: %v", v)
		}
	}
}

func TestFlatKeepMaskAlignsWithGSE(t *testing.T) {
	m := testModel(7)
	mask, _ := prune.MagnitudePrune(m, 0.5, prune.GlobalMagnitude)
	mask.Apply(m)
	// Build gradients, apply GSE via mask, flatten; the flat zero pattern
	// must match FlatKeepMask (on prunable coordinates gradients may also
	// be incidentally zero, so check one direction: !keep ⇒ zero).
	r := tensor.NewRNG(3)
	x := tensor.Randn(r, 1, 4, 1, 4, 4)
	out := m.Forward(x, true)
	_, grad := nn.SoftmaxCrossEntropy(out, []int{0, 1, 2, 0})
	m.ZeroGrad()
	m.Backward(grad)
	for _, p := range m.Params() {
		keep := mask.Of(p.Name)
		g := p.Grad.Data()
		for i := range g {
			if !keep[i] {
				g[i] = 0
			}
		}
	}
	buckets := BuildBuckets(m, 1<<30)
	b := buckets[0]
	b.Gather()
	keep := b.FlatKeepMask(mask)
	for i, v := range b.Flat {
		if !keep[i] && v != 0 {
			t.Fatalf("flat[%d] = %v where mask says pruned", i, v)
		}
	}
}

func TestComputeModelPhysics(t *testing.T) {
	c := A40ComputeModel(1e9) // 1 GFLOP/sample
	fwd := c.ForwardSeconds(32)
	want := 1e9 * 32 / (37.4e12 * 0.35)
	if math.Abs(fwd-want)/want > 1e-9 {
		t.Fatalf("forward %v, want %v", fwd, want)
	}
	if c.BackwardSeconds(32) != 2*fwd {
		t.Fatal("backward should be 2× forward")
	}
	if c.IterSeconds(32) != 3*fwd {
		t.Fatal("iteration should be 3× forward")
	}
}

// overlapIterTime prices one iteration of two equal buckets, each costing
// comm seconds, on the per-bucket timeline the trainer builds for mode o:
// every bucket launches once its gradient is ready and the in-order stream
// is free, and the iteration ends at the later of backward and the last
// collective.
func overlapIterTime(c ComputeModel, batch int, comm float64, o Overlap) float64 {
	var prefix []float64
	if o == OverlapBackward {
		prefix = simclock.PrefixShares([]int{1, 1})
	}
	s := simclock.NewIterSchedule(0, c.ForwardSeconds(batch), c.BackwardSeconds(batch), prefix)
	end := math.Inf(-1)
	for i := 0; i < 2; i++ {
		end = math.Max(s.ReadyAt(i), end) + comm
	}
	return s.Finish(end)
}

func TestIterationTimeOverlap(t *testing.T) {
	c := A40ComputeModel(1e9)
	comm := 1.0
	serial := overlapIterTime(c, 32, comm, OverlapNone)
	if math.Abs(serial-(c.IterSeconds(32)+2*comm)) > 1e-12 {
		t.Fatal("OverlapNone must serialize")
	}
	// Huge comm: overlapped time = fwd + first bucket's backward share + comm.
	big := overlapIterTime(c, 32, comm, OverlapBackward)
	if math.Abs(big-(c.ForwardSeconds(32)+c.BackwardSeconds(32)/2+2*comm)) > 1e-12 {
		t.Fatal("OverlapBackward with large comm should pay fwd+half bwd+comm")
	}
	// Tiny comm: all but the last bucket hidden under backward.
	small := overlapIterTime(c, 32, 1e-9, OverlapBackward)
	if math.Abs(small-(c.IterSeconds(32)+1e-9)) > 1e-10 {
		t.Fatal("OverlapBackward with tiny comm should pay compute plus the last bucket")
	}
	if OverlapNone.String() != "none" || OverlapBackward.String() != "backward" {
		t.Fatal("Overlap.String broken")
	}
}

func TestOverlapParseRoundTrip(t *testing.T) {
	if OverlapNone.String() != "none" || OverlapBackward.String() != "backward" {
		t.Fatal("Overlap.String broken")
	}
	for _, o := range []Overlap{OverlapNone, OverlapBackward} {
		got, err := ParseOverlap(o.String())
		if err != nil || got != o {
			t.Fatalf("ParseOverlap(%q) = %v, %v; want %v", o.String(), got, err, o)
		}
	}
	if got, err := ParseOverlap(""); err != nil || got != OverlapNone {
		t.Fatalf("empty selector = %v, %v; want OverlapNone", got, err)
	}
	if _, err := ParseOverlap("sideways"); err == nil {
		t.Fatal("unknown overlap mode must error")
	} else if !strings.Contains(err.Error(), "none") || !strings.Contains(err.Error(), "backward") {
		t.Fatalf("error should list the vocabulary: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustOverlap must panic on unknown names")
		}
	}()
	MustOverlap("sideways")
}

func TestRankComputeScale(t *testing.T) {
	var rc RankCompute
	if rc.Enabled() {
		t.Fatal("zero RankCompute must be disabled")
	}
	if s := rc.Scale(3, 17); s != 1.0 {
		t.Fatalf("disabled Scale = %v, want exactly 1", s)
	}
	rc = RankCompute{Multipliers: []float64{1, 1, 2}}
	if rc.Scale(2, 0) != 2 || rc.Scale(0, 0) != 1 || rc.Scale(5, 0) != 1 {
		t.Fatal("multiplier lookup broken (ranks past the slice run at 1)")
	}
	// Jitter is deterministic in (seed, rank, iter) and bounded by the
	// fraction.
	j := RankCompute{JitterFrac: 0.25, JitterSeed: 9}
	for rank := 0; rank < 3; rank++ {
		for iter := 0; iter < 5; iter++ {
			a, b := j.Scale(rank, iter), j.Scale(rank, iter)
			if a != b {
				t.Fatalf("jitter not deterministic at (%d,%d): %v vs %v", rank, iter, a, b)
			}
			if a < 0.75 || a >= 1.25 {
				t.Fatalf("jitter scale %v outside [0.75, 1.25)", a)
			}
		}
	}
	if j.Scale(0, 1) == j.Scale(0, 2) && j.Scale(0, 2) == j.Scale(0, 3) {
		t.Fatal("jitter constant across iterations")
	}
	if j.Scale(0, 1) == j.Scale(1, 1) && j.Scale(1, 1) == j.Scale(2, 1) {
		t.Fatal("jitter constant across ranks")
	}
}

func TestRankComputeCanonicalAndValidate(t *testing.T) {
	rc := RankCompute{Multipliers: []float64{1, 2, 1, 1}, JitterSeed: 99}
	canon := rc.Canonical()
	if len(canon.Multipliers) != 2 || canon.Multipliers[1] != 2 {
		t.Fatalf("trailing unit multipliers not trimmed: %v", canon.Multipliers)
	}
	if canon.JitterSeed != 0 {
		t.Fatal("jitter seed is dead without jitter and must zero")
	}
	all1 := RankCompute{Multipliers: []float64{1, 1}}
	if c := all1.Canonical(); c.Enabled() {
		t.Fatalf("all-unit multipliers must canonicalize to disabled: %+v", c)
	}
	if err := (RankCompute{Multipliers: []float64{1, -2}}).Validate(4); err == nil {
		t.Fatal("negative multiplier must fail validation")
	}
	if err := (RankCompute{Multipliers: []float64{1, 1, 1}}).Validate(2); err == nil {
		t.Fatal("more multipliers than ranks must fail validation")
	}
	if err := (RankCompute{JitterFrac: 1}).Validate(2); err == nil {
		t.Fatal("jitter 1 must fail validation")
	}
	if err := (RankCompute{Multipliers: []float64{2, 0.5}, JitterFrac: 0.1}).Validate(2); err != nil {
		t.Fatalf("valid heterogeneity rejected: %v", err)
	}
}
