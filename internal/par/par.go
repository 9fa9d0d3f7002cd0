// Package par is the process-wide data-parallel worker budget shared by the
// simulator's hot kernels (internal/compress, internal/collective) and, since
// the model-compute work, the tensor/nn training kernels. It exists so
// goroutine-level parallelism inside a kernel composes with the job-level
// parallelism of the experiment engine and the trainer's per-rank goroutines
// instead of multiplying against them: the engine sizes the budget to
// GOMAXPROCS divided by its concurrent-job count, and every kernel chunks
// against that single number.
//
// Chunk boundaries are never allowed to influence results — callers may only
// parallelize loops whose iterations are independent (elementwise maps,
// gathers/scatters over disjoint indices, output-row partitions of a matmul)
// or whose reduction is exactly associative (float max). That is what keeps
// parallel runs bit-identical to scalar runs, the repo-wide reproducibility
// contract.
//
// Nested-dispatch policy: a chunk function may itself call For/ForChunks
// (an attention layer parallelized over samples calls matmul kernels that
// chunk over rows). Every chunked dispatch is a job whose chunks are claimed
// from one atomic counter. The dispatching goroutine claims and runs chunks
// until none are left, then waits only for chunks another goroutine already
// claimed and is running; idle pool workers are offered help tokens and
// claim from the same counter. A dispatcher therefore never depends on an
// idle worker to make progress, so a dispatch nested inside a chunk can
// always finish alone — the pool cannot deadlock however rank goroutines ×
// engine jobs × kernels stack, and nobody runs unrelated work while waiting.
// Which goroutine runs a chunk never changes the chunk's ordinal or range.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// MinWork is the scalar work (element count, or an explicit estimate via
// ForChunksWork) below which a chunked dispatch costs more in scheduling
// than it saves in compute; smaller loops run inline.
const MinWork = 8192

var budget atomic.Int64

func init() { budget.Store(int64(runtime.GOMAXPROCS(0))) }

// SetBudget sets the maximum number of chunks a single For call fans out
// into. The experiment engine calls this with GOMAXPROCS/parallel-jobs so
// kernel parallelism does not oversubscribe the machine; values below 1
// clamp to 1 (fully inline execution).
func SetBudget(n int) {
	if n < 1 {
		n = 1
	}
	budget.Store(int64(n))
}

// Budget returns the current chunk budget.
func Budget() int { return int(budget.Load()) }

// pool is a fixed set of worker goroutines sized once to GOMAXPROCS; a
// dispatch sends it help tokens. A persistent pool keeps steady-state
// iterations free of goroutine churn.
var (
	poolOnce sync.Once
	poolCh   chan *job
)

func ensurePool() {
	poolOnce.Do(func() {
		workers := runtime.GOMAXPROCS(0)
		// Room for several concurrent dispatches' tokens to queue behind
		// busy workers; when it is full a dispatcher runs its own chunks.
		poolCh = make(chan *job, 4*workers)
		for i := 0; i < workers; i++ {
			go func() {
				for j := range poolCh {
					j.run()
				}
			}()
		}
	})
}

// job is one chunked dispatch: c chunks of size items over [0, n), handed
// out in ordinal order by next; chunks past the end of the range are empty
// ([n, n)). wg counts chunks not yet finished.
type job struct {
	fn         func(chunk, lo, hi int)
	n, c, size int
	next       atomic.Int64
	wg         sync.WaitGroup
}

// run claims and executes chunks until the job has none left. A help token
// that arrives after the last claim finds nothing and is dropped.
func (j *job) run() {
	for {
		i := int(j.next.Add(1) - 1)
		if i >= j.c {
			return
		}
		lo := min(i*j.size, j.n)
		j.fn(i, lo, min(lo+j.size, j.n))
		j.wg.Done()
	}
}

// chunksFor returns how many contiguous ranges a dispatch splits n items of
// the given total scalar work into under the current budget: at most
// Budget(), never so many that chunks drop below MinWork/2 work, and never
// more than n. It is a pure function of (n, work, Budget()), which is what
// keeps chunk partitions — and therefore any per-chunk partial folds —
// deterministic at a fixed budget.
func chunksFor(n, work int) int {
	w := Budget()
	if w <= 1 || work < MinWork || n <= 1 {
		return 1
	}
	if max := work / (MinWork / 2); w > max {
		w = max
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// PlanChunks reports how many chunks ForChunksWork(n, work, ·) would use at
// the current budget. Kernels call it to take an allocation-free scalar
// path when the answer is 1: passing a closure to ForChunksWork forces the
// closure to the heap even when it ends up running inline, and the budget-1
// train step is required to be allocation-free in steady state.
func PlanChunks(n, work int) int { return chunksFor(n, work) }

// For runs fn over [0, n) split into contiguous chunks executed on the
// worker pool. fn(lo, hi) must treat its iterations as independent of every
// other chunk's — results must not depend on chunk boundaries. Small n (or a
// budget of 1) runs inline on the caller's goroutine.
func For(n int, fn func(lo, hi int)) {
	ForChunks(n, func(_, lo, hi int) { fn(lo, hi) })
}

// ForChunks is For with the chunk ordinal exposed, for callers that combine
// per-chunk partial results (e.g. an exact max reduction). It returns the
// number of chunks used; fn is called exactly once per chunk with ordinals
// 0..chunks-1 covering [0, n) in order.
func ForChunks(n int, fn func(chunk, lo, hi int)) int {
	return dispatch(n, chunksFor(n, n), fn)
}

// ForChunksWork is ForChunks with an explicit scalar-work estimate for the
// inline/chunk-count decision, for loops whose items are coarser than one
// element: matmul output rows (k·n flops each), im2col receptive-field rows,
// image planes, attention samples. n still bounds the chunk count; work
// only gates dispatch and granularity.
func ForChunksWork(n, work int, fn func(chunk, lo, hi int)) int {
	return dispatch(n, chunksFor(n, work), fn)
}

func dispatch(n, c int, fn func(chunk, lo, hi int)) int {
	if c == 1 {
		if n > 0 {
			fn(0, 0, n)
		}
		return 1
	}
	ensurePool()
	j := &job{fn: fn, n: n, c: c, size: (n + c - 1) / c}
	j.wg.Add(c)
	// Offer up to c-1 helpers without blocking: when the pool is busy the
	// dispatcher simply claims more chunks itself.
offer:
	for i := 0; i < c-1; i++ {
		select {
		case poolCh <- j:
		default:
			break offer
		}
	}
	j.run()
	j.wg.Wait()
	return c
}
