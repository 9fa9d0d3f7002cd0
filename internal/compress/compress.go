// Package compress implements the gradient compression schemes evaluated in
// the PacTrain paper: the lossless fp32 baseline, FP16 quantization, TopK
// and RandomK sparsification, DGC (Deep Gradient Compression with momentum
// correction), TernGrad ternary quantization, QSGD-style stochastic
// quantization, a THC-style homomorphic lattice, and PacTrain's own
// mask-compact compressor (plain and ternary).
//
// Compressors are classified by the transport they require (Table 1's
// compatibility column):
//
//   - TransportAllReduce: the encoded payload of different workers can be
//     summed elementwise, so ring all-reduce applies directly.
//   - TransportAllGather: workers select different coordinates, so payloads
//     must be exchanged wholesale and summed locally.
//   - TransportPS: the scheme was designed around a centralized aggregator.
package compress

import (
	"fmt"
	"math"
	"sort"

	"pactrain/internal/collective"
	"pactrain/internal/par"
)

// Transport describes which collective a compressor's payloads support.
type Transport int

// Transport values.
const (
	TransportAllReduce Transport = iota
	TransportAllGather
	TransportPS
)

// String implements fmt.Stringer.
func (t Transport) String() string {
	switch t {
	case TransportAllReduce:
		return "all-reduce"
	case TransportAllGather:
		return "all-gather"
	case TransportPS:
		return "parameter-server"
	}
	return "unknown"
}

// Compressor is the common surface of all schemes.
type Compressor interface {
	Name() string
	Transport() Transport
	// Wire returns the on-wire representation of payload elements.
	Wire() collective.WireFormat
	// Lossless reports whether decode(aggregate(encode)) is exact.
	Lossless() bool
}

// DenseCompressor produces payloads that aggregate by elementwise sum
// (all-reduce compatible, or PS for THC).
type DenseCompressor interface {
	Compressor
	// Encode transforms a gradient into its dense wire payload. The payload
	// length may differ from len(grad) (PacTrain compacts it).
	Encode(grad []float32) []float32
	// Decode writes the aggregated payload back into a full-size gradient.
	Decode(payload []float32, out []float32)
}

// SparseCompressor produces per-worker coordinate selections that must be
// exchanged via all-gather.
type SparseCompressor interface {
	Compressor
	Encode(grad []float32) collective.SparsePayload
	// DecodeSum accumulates one worker's payload into out (out += payload).
	DecodeSum(p collective.SparsePayload, out []float32)
}

// ReusableEncoder is implemented by dense compressors whose Encode can write
// into a caller-provided buffer. EncodeInto(grad, buf) returns the payload,
// reusing buf's backing array when it is large enough; the trainer holds one
// buffer per bucket so steady-state iterations allocate nothing on this
// path. EncodeInto(grad, nil) is exactly Encode(grad).
type ReusableEncoder interface {
	EncodeInto(grad, buf []float32) []float32
}

// grow returns buf resized to n elements, reallocating only when the backing
// array is too small. Contents are unspecified; callers overwrite every
// element (or zero explicitly).
func grow(buf []float32, n int) []float32 {
	if cap(buf) < n {
		return make([]float32, n)
	}
	return buf[:n]
}

// maxAbs returns max_i |v[i]| — the shared scale factor of the quantizers —
// reduced in parallel. Partial chunk maxima combine in chunk order; float
// max is exactly associative, so the result is bit-identical to the scalar
// scan for any chunking.
func maxAbs(v []float32) float32 {
	var s float32
	if len(v) < par.MinWork || par.Budget() <= 1 {
		for _, x := range v {
			if a := abs32(x); a > s {
				s = a
			}
		}
		return s
	}
	partial := make([]float32, par.Budget())
	n := par.ForChunks(len(v), func(chunk, lo, hi int) {
		var m float32
		for _, x := range v[lo:hi] {
			if a := abs32(x); a > m {
				m = a
			}
		}
		partial[chunk] = m
	})
	for _, m := range partial[:n] {
		if m > s {
			s = m
		}
	}
	return s
}

// --- FP32 (no compression) --------------------------------------------------

// FP32 is the lossless identity baseline ("all-reduce" in the figures).
type FP32 struct{}

// NewFP32 returns the identity compressor.
func NewFP32() *FP32 { return &FP32{} }

// Name implements Compressor.
func (*FP32) Name() string { return "all-reduce" }

// Transport implements Compressor.
func (*FP32) Transport() Transport { return TransportAllReduce }

// Wire implements Compressor.
func (*FP32) Wire() collective.WireFormat { return collective.WireFP32 }

// Lossless implements Compressor.
func (*FP32) Lossless() bool { return true }

// Encode implements DenseCompressor.
func (c *FP32) Encode(grad []float32) []float32 { return c.EncodeInto(grad, nil) }

// EncodeInto implements ReusableEncoder.
func (*FP32) EncodeInto(grad, buf []float32) []float32 {
	out := grow(buf, len(grad))
	copy(out, grad)
	return out
}

// Decode implements DenseCompressor.
func (*FP32) Decode(payload []float32, out []float32) { copy(out, payload) }

// --- FP16 -------------------------------------------------------------------

// FP16 rounds every gradient element through IEEE-754 binary16, halving the
// wire volume. Aggregation still sums in float32, as NCCL does for fp16
// all-reduce with fp32 accumulation.
type FP16 struct{}

// NewFP16 returns the fp16 compressor.
func NewFP16() *FP16 { return &FP16{} }

// Name implements Compressor.
func (*FP16) Name() string { return "fp16" }

// Transport implements Compressor.
func (*FP16) Transport() Transport { return TransportAllReduce }

// Wire implements Compressor.
func (*FP16) Wire() collective.WireFormat { return collective.WireFP16 }

// Lossless implements Compressor.
func (*FP16) Lossless() bool { return false }

// Encode implements DenseCompressor.
func (c *FP16) Encode(grad []float32) []float32 { return c.EncodeInto(grad, nil) }

// EncodeInto implements ReusableEncoder. The conversion is elementwise, so
// the chunked parallel loop is bit-identical to the scalar one.
func (*FP16) EncodeInto(grad, buf []float32) []float32 {
	out := grow(buf, len(grad))
	par.For(len(grad), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = HalfToFloat32(Float32ToHalf(grad[i]))
		}
	})
	return out
}

// Decode implements DenseCompressor.
func (*FP16) Decode(payload []float32, out []float32) { copy(out, payload) }

// --- IEEE-754 binary16 conversion -------------------------------------------

// Float32ToHalf converts a float32 to IEEE-754 binary16 bits with
// round-to-nearest.
func Float32ToHalf(f float32) uint16 {
	bits := math.Float32bits(f)
	sign := uint16(bits>>16) & 0x8000
	exp := int32((bits>>23)&0xff) - 127 + 15
	man := bits & 0x7fffff

	if (bits>>23)&0xff == 0xff { // Inf or NaN
		if man != 0 {
			return sign | 0x7e00 // NaN
		}
		return sign | 0x7c00 // Inf
	}
	if exp >= 31 { // overflow → Inf
		return sign | 0x7c00
	}
	if exp <= 0 { // subnormal half or zero
		if exp < -10 {
			return sign
		}
		man |= 0x800000
		shift := uint32(14 - exp)
		half := uint16(man >> shift)
		if man>>(shift-1)&1 != 0 { // round half up
			half++
		}
		return sign | half
	}
	half := sign | uint16(exp)<<10 | uint16(man>>13)
	if man&0x1000 != 0 {
		half++ // rounding may carry into the exponent, which is still valid
	}
	return half
}

// HalfToFloat32 converts IEEE-754 binary16 bits to float32.
func HalfToFloat32(h uint16) float32 {
	sign := uint32(h&0x8000) << 16
	exp := uint32(h>>10) & 0x1f
	man := uint32(h & 0x3ff)
	switch exp {
	case 0:
		if man == 0 {
			return math.Float32frombits(sign)
		}
		f := float32(man) / (1 << 24)
		if sign != 0 {
			return -f
		}
		return f
	case 31:
		if man != 0 {
			return float32(math.NaN())
		}
		if sign != 0 {
			return float32(math.Inf(-1))
		}
		return float32(math.Inf(1))
	default:
		return math.Float32frombits(sign | (exp+112)<<23 | man<<13)
	}
}

// NMSE computes the normalized mean squared error ‖x−x̂‖²/‖x‖² used by the
// paper (§III-D) to quantify compression distortion.
func NMSE(x, xhat []float32) float64 {
	if len(x) != len(xhat) {
		panic("compress: NMSE length mismatch")
	}
	var num, den float64
	for i := range x {
		d := float64(x[i] - xhat[i])
		num += d * d
		den += float64(x[i]) * float64(x[i])
	}
	if den == 0 {
		if num == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return num / den
}

// --- Registry ---------------------------------------------------------------

// topKSelector owns the scratch index slice quickselect partitions. Sparse
// compressors embed one and reuse it across calls, removing the per-bucket
// per-iteration allocation the historical sort-based selection paid.
// Selectors are not safe for concurrent use; each rank's compressor instance
// is driven serially, which is the only way the trainer calls them.
type topKSelector struct {
	scratch []int32
}

// topKIndices returns the indices of the k largest |v| entries, ascending.
// Ties between equal magnitudes break toward the lower index — the same
// total order (|v| descending, index ascending) the original full sort used,
// so quickselect returns the identical index set.
func (s *topKSelector) topKIndices(v []float32, k int) []int32 {
	n := len(v)
	if cap(s.scratch) < n {
		s.scratch = make([]int32, n)
	}
	idx := s.scratch[:n]
	for i := range idx {
		idx[i] = int32(i)
	}
	if k > n {
		k = n
	}
	if k < n {
		quickselectTopK(v, idx, k)
	}
	out := append([]int32(nil), idx[:k]...)
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// topKIndices is the selector without scratch reuse, for one-shot callers.
func topKIndices(v []float32, k int) []int32 {
	var s topKSelector
	return s.topKIndices(v, k)
}

// topKLess is the strict total order selection runs under: larger magnitude
// first, lower index first among equal magnitudes. The index tiebreak makes
// every pair of distinct indices comparable, so the order has no duplicates.
func topKLess(v []float32, a, b int32) bool {
	va, vb := abs32(v[a]), abs32(v[b])
	if va != vb {
		return va > vb
	}
	return a < b
}

// quickselectTopK partially orders idx so idx[:k] holds the first k entries
// under topKLess — the k largest-magnitude coordinates with deterministic
// tie-breaks, in O(n) expected time. The pivot is a median of three, which
// is deterministic (no RNG to perturb reproducibility) and defeats the
// sorted/reversed inputs that degrade a fixed-pivot quickselect.
func quickselectTopK(v []float32, idx []int32, k int) {
	lo, hi := 0, len(idx)
	for hi-lo > 16 {
		mid := lo + (hi-lo)/2
		if topKLess(v, idx[mid], idx[lo]) {
			idx[mid], idx[lo] = idx[lo], idx[mid]
		}
		if topKLess(v, idx[hi-1], idx[lo]) {
			idx[hi-1], idx[lo] = idx[lo], idx[hi-1]
		}
		if topKLess(v, idx[hi-1], idx[mid]) {
			idx[hi-1], idx[mid] = idx[mid], idx[hi-1]
		}
		pivot := idx[mid]
		i, j := lo-1, hi
		for {
			for {
				i++
				if !topKLess(v, idx[i], pivot) {
					break
				}
			}
			for {
				j--
				if !topKLess(v, pivot, idx[j]) {
					break
				}
			}
			if i >= j {
				break
			}
			idx[i], idx[j] = idx[j], idx[i]
		}
		// Hoare invariant: every entry of [lo, j] precedes every entry of
		// (j, hi) under topKLess. Recurse into whichever side straddles k.
		switch {
		case k <= j:
			hi = j + 1
		case k > j+1:
			lo = j + 1
		default:
			return
		}
	}
	// Small windows finish by insertion sort, which also handles the
	// already-partitioned prefix exactly.
	for i := lo + 1; i < hi; i++ {
		for j := i; j > lo && topKLess(v, idx[j], idx[j-1]); j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
}

// KthLargestMagnitude returns the k-th largest |v| (0-based: k entries
// precede it) for 0 ≤ k < len(v), in O(n) expected time — the top-k
// quickselect above, shared with magnitude pruning's threshold.
func KthLargestMagnitude(v []float32, k int) float32 {
	idx := make([]int32, len(v))
	for i := range idx {
		idx[i] = int32(i)
	}
	quickselectTopK(v, idx, k)
	// idx[:k] precedes every entry of idx[k:]; the k-th is the first of those.
	kth := idx[k]
	for _, i := range idx[k+1:] {
		if topKLess(v, i, kth) {
			kth = i
		}
	}
	return abs32(v[kth])
}

func abs32(v float32) float32 {
	if v < 0 {
		return -v
	}
	return v
}

// ratioCount converts a compression ratio to a coordinate count, keeping at
// least one coordinate for non-empty gradients.
func ratioCount(n int, ratio float64) int {
	k := int(math.Round(float64(n) * ratio))
	if k < 1 && n > 0 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// ByName constructs a compressor from its evaluation-figure name, e.g.
// "all-reduce", "fp16", "topk-0.1", "topk-0.01", "randomk-0.1", "terngrad",
// "qsgd", "thc", "dgc-0.01".
func ByName(name string, seed uint64) (Compressor, error) {
	switch {
	case name == "all-reduce" || name == "fp32" || name == "none":
		return NewFP32(), nil
	case name == "fp16":
		return NewFP16(), nil
	case name == "terngrad":
		return NewTernGrad(seed), nil
	case name == "qsgd":
		return NewQSGD(256, seed), nil
	case name == "thc":
		return NewTHC(256), nil
	case name == "topk-0.1":
		return NewTopK(0.1), nil
	case name == "topk-0.01":
		return NewTopK(0.01), nil
	case name == "randomk-0.1":
		return NewRandomK(0.1, seed), nil
	case name == "randomk-0.01":
		return NewRandomK(0.01, seed), nil
	case name == "dgc-0.1":
		return NewDGC(0.1, 0.9), nil
	case name == "dgc-0.01":
		return NewDGC(0.01, 0.9), nil
	}
	return nil, fmt.Errorf("compress: unknown compressor %q", name)
}
