package tensor

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"pactrain/internal/par"
)

// bitsEqual reports whether two tensors are byte-identical (exact float bit
// patterns, not approximate equality).
func bitsEqual(a, b *Tensor) bool {
	if !a.SameShape(b) {
		return false
	}
	for i := range a.data {
		if math.Float32bits(a.data[i]) != math.Float32bits(b.data[i]) {
			return false
		}
	}
	return true
}

// TestMatMulBitExactAcrossBudgets pins the core kernel invariant: every
// matmul variant produces byte-identical output at par budgets 1 and 8, on
// shapes large enough to actually chunk (> par.MinWork of scalar work) and
// awkward enough to exercise ragged chunk boundaries and the register-block
// remainder columns. MatMulInto and MatMulTransAInto must also equal the
// scalar loops in matMulRef bit for bit. Rows of B whose A entries are all
// zero carry ±Inf and NaN: the av == 0 skip means they never reach the
// output (0·Inf would be NaN), so the kernels must keep skipping them.
func TestMatMulBitExactAcrossBudgets(t *testing.T) {
	defer par.SetBudget(par.Budget())
	rng := NewRNG(42)
	shapes := []struct{ m, k, n int }{
		{7, 5, 3},     // below MinWork: stays inline
		{67, 129, 31}, // chunked, ragged rows, n%4 != 0
		{128, 64, 64}, // chunked, aligned
	}
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	for _, s := range shapes {
		a := Randn(rng, 1, s.m, s.k)
		b := Randn(rng, 1, s.k, s.n)
		bt := Transpose(b) // (n,k), without the planted non-finite rows
		// Sprinkle exact zeros so the av==0 skip path is exercised.
		for i := 0; i < len(a.data); i += 5 {
			a.data[i] = 0
		}
		// Zero whole columns of A and plant non-finite values in the matching
		// rows of B.
		for p := 1; p < s.k; p += 3 {
			for i := 0; i < s.m; i++ {
				a.data[i*s.k+p] = 0
			}
			row := b.data[p*s.n : (p+1)*s.n]
			row[0], row[s.n/2], row[s.n-1] = inf, -inf, nan
		}
		at := Transpose(a) // (k,m)
		ref := matMulRef(a.data, b.data, s.m, s.k, s.n)
		kernels := []struct {
			name string
			run  func(dst *Tensor)
			ref  []float32
		}{
			{"MatMulInto", func(dst *Tensor) { MatMulInto(dst, a, b) }, ref},
			{"MatMulTransAInto", func(dst *Tensor) { MatMulTransAInto(dst, at, b) }, ref},
			{"MatMulTransBInto", func(dst *Tensor) { MatMulTransBInto(dst, a, bt) }, nil},
		}
		for _, kn := range kernels {
			par.SetBudget(1)
			want := New(s.m, s.n)
			kn.run(want)
			par.SetBudget(8)
			got := New(s.m, s.n)
			kn.run(got)
			if !bitsEqual(want, got) {
				t.Errorf("%s (%d,%d,%d): budget 8 differs from budget 1", kn.name, s.m, s.k, s.n)
			}
			if kn.ref != nil && !bitsEqual(want, FromSlice(kn.ref, s.m, s.n)) {
				t.Errorf("%s (%d,%d,%d): differs from the scalar reference", kn.name, s.m, s.k, s.n)
			}
			for i, v := range want.data {
				if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
					t.Errorf("%s (%d,%d,%d): element %d = %v; a skipped B row leaked into the output",
						kn.name, s.m, s.k, s.n, i, v)
					break
				}
			}
		}
	}
}

// matMulRef is the scalar C = A × B for row-major A (m,k) and B (k,n): the
// ascending-p sum of a[i,p]·b[p,j] with terms whose a[i,p] is zero skipped,
// each term one rounded multiply and one rounded add.
func matMulRef(a, b []float32, m, k, n int) []float32 {
	c := make([]float32, m*n)
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			av := a[i*k+p]
			if av == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				c[i*n+j] += av * b[p*n+j]
			}
		}
	}
	return c
}

// TestMatMulIntoReusesDirtyBuffer pins that the Into kernels fully overwrite
// a dirty destination — required for scratch reuse across train steps.
func TestMatMulIntoReusesDirtyBuffer(t *testing.T) {
	rng := NewRNG(7)
	a := Randn(rng, 1, 9, 11)
	b := Randn(rng, 1, 11, 6)
	at := Transpose(a)
	cases := []struct {
		name string
		m, n int
		run  func(dst *Tensor)
	}{
		{"MatMulInto", 9, 6, func(dst *Tensor) { MatMulInto(dst, a, b) }},
		{"MatMulTransAInto", 9, 6, func(dst *Tensor) { MatMulTransAInto(dst, at, b) }},
		{"MatMulTransBInto", 9, 9, func(dst *Tensor) { MatMulTransBInto(dst, a, a) }},
	}
	for _, c := range cases {
		fresh := New(c.m, c.n)
		c.run(fresh)
		dirty := Full(float32(math.NaN()), c.m, c.n)
		c.run(dirty)
		if !bitsEqual(fresh, dirty) {
			t.Errorf("%s: dirty-buffer result differs from fresh-buffer result", c.name)
		}
	}
}

// TestIm2ColIntoBitExactAndDirtySafe covers the lowering kernels: budget
// independence and full overwrite of a reused buffer (padding rows must read
// zero again).
func TestIm2ColIntoBitExactAndDirtySafe(t *testing.T) {
	defer par.SetBudget(par.Budget())
	rng := NewRNG(3)
	x := Randn(rng, 1, 4, 3, 14, 14) // 4*12*12=576 rows × 27 cols, chunkable with pad
	const kh, kw, stride, pad = 3, 3, 1, 1
	par.SetBudget(1)
	want := Im2Col(x, kh, kw, stride, pad)
	par.SetBudget(8)
	got := Full(float32(math.NaN()), want.shape[0], want.shape[1])
	Im2ColInto(got, x, kh, kw, stride, pad)
	if !bitsEqual(want, got) {
		t.Fatal("Im2ColInto: dirty buffer at budget 8 differs from fresh at budget 1")
	}

	par.SetBudget(1)
	wantImg := Col2Im(want, 4, 3, 14, 14, kh, kw, stride, pad)
	par.SetBudget(8)
	gotImg := Full(float32(math.NaN()), 4, 3, 14, 14)
	Col2ImInto(gotImg, got, kh, kw, stride, pad)
	if !bitsEqual(wantImg, gotImg) {
		t.Fatal("Col2ImInto: dirty buffer at budget 8 differs from fresh at budget 1")
	}
}

// TestMatMulIntoShapePanicsIncludeShapes pins the satellite requirement that
// the Into matmul panics name the offending shapes.
func TestMatMulIntoShapePanicsIncludeShapes(t *testing.T) {
	cases := []struct {
		op  string
		run func()
	}{
		{"MatMulInto", func() { MatMulInto(New(2, 2), New(2, 3), New(4, 2)) }},
		{"MatMulTransAInto", func() { MatMulTransAInto(New(2, 2), New(3, 2), New(4, 2)) }},
		{"MatMulTransBInto", func() { MatMulTransBInto(New(2, 2), New(2, 3), New(2, 4)) }},
	}
	for _, c := range cases {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Errorf("%s: expected panic", c.op)
					return
				}
				msg := fmt.Sprint(r)
				if !strings.Contains(msg, c.op) || !strings.Contains(msg, "[2 3]") && !strings.Contains(msg, "[3 2]") {
					t.Errorf("%s: panic %q does not report the offending shapes", c.op, msg)
				}
			}()
			c.run()
		}()
	}
}

func benchmarkMatMul(b *testing.B, size, budget int) {
	defer par.SetBudget(par.Budget())
	par.SetBudget(budget)
	rng := NewRNG(1)
	x := Randn(rng, 1, size, size)
	y := Randn(rng, 1, size, size)
	dst := New(size, size)
	b.SetBytes(int64(size) * int64(size) * int64(size) * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInto(dst, x, y)
	}
}

func BenchmarkMatMul256(b *testing.B)        { benchmarkMatMul(b, 256, 1) }
func BenchmarkMatMul256Budget8(b *testing.B) { benchmarkMatMul(b, 256, 8) }

func BenchmarkMatMulTransB256(b *testing.B) {
	rng := NewRNG(1)
	x := Randn(rng, 1, 256, 256)
	y := Randn(rng, 1, 256, 256)
	dst := New(256, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulTransBInto(dst, x, y)
	}
}

// BenchmarkMatMulTrainShapes times the two axpy-based kernels at budget 1 on
// the hot (m,k,n) shapes of a world-8 pactrain-ternary train step on the
// VGG19 and ViT twins: conv input and weight gradients (NN 4096×8×72,
// TA 8×4096×72), the wider conv layers (NN 256×32×288, TA 32×256×288) and
// attention's per-head products (NN 17×32×32).
func BenchmarkMatMulTrainShapes(b *testing.B) {
	defer par.SetBudget(par.Budget())
	par.SetBudget(1)
	shapes := []struct {
		name    string
		transA  bool
		m, k, n int
	}{
		{"NN_4096x8x72", false, 4096, 8, 72},
		{"TA_8x4096x72", true, 8, 4096, 72},
		{"NN_256x32x288", false, 256, 32, 288},
		{"TA_32x256x288", true, 32, 256, 288},
		{"NN_17x32x32", false, 17, 32, 32},
	}
	for _, s := range shapes {
		b.Run(s.name, func(b *testing.B) {
			rng := NewRNG(1)
			x := Randn(rng, 1, s.m, s.k)
			if s.transA {
				x = Randn(rng, 1, s.k, s.m)
			}
			y := Randn(rng, 1, s.k, s.n)
			dst := New(s.m, s.n)
			for b.Loop() {
				if s.transA {
					MatMulTransAInto(dst, x, y)
				} else {
					MatMulInto(dst, x, y)
				}
			}
		})
	}
}
