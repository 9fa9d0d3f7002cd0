package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestForCoversEveryIndexOnce(t *testing.T) {
	defer SetBudget(Budget())
	for _, budget := range []int{1, 2, 7, runtime.GOMAXPROCS(0) * 4} {
		for _, n := range []int{0, 1, MinWork - 1, MinWork, MinWork*3 + 17} {
			SetBudget(budget)
			hits := make([]int32, n)
			For(n, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("budget %d n %d: index %d visited %d times", budget, n, i, h)
				}
			}
		}
	}
}

func TestForChunksPartialsPartitionTheRange(t *testing.T) {
	defer SetBudget(Budget())
	SetBudget(8)
	n := MinWork * 4
	c := ForChunks(n, func(chunk, lo, hi int) {})
	if c < 1 {
		t.Fatalf("chunk count %d", c)
	}
	// Partial sums accumulated per chunk must combine to the scalar total.
	partial := make([]int64, c)
	got := ForChunks(n, func(chunk, lo, hi int) {
		var s int64
		for i := lo; i < hi; i++ {
			s += int64(i)
		}
		partial[chunk] = s
	})
	if got != c {
		t.Fatalf("chunk count changed between identical calls: %d vs %d", got, c)
	}
	var total int64
	for _, s := range partial {
		total += s
	}
	want := int64(n) * int64(n-1) / 2
	if total != want {
		t.Fatalf("partials sum to %d, want %d", total, want)
	}
}

func TestSmallInputsStayInline(t *testing.T) {
	defer SetBudget(Budget())
	SetBudget(16)
	if c := ForChunks(MinWork-1, func(chunk, lo, hi int) {}); c != 1 {
		t.Fatalf("sub-MinWork input split into %d chunks", c)
	}
}

func TestSetBudgetClampsToOne(t *testing.T) {
	defer SetBudget(Budget())
	SetBudget(-3)
	if b := Budget(); b != 1 {
		t.Fatalf("budget %d after SetBudget(-3)", b)
	}
	if c := ForChunks(MinWork*8, func(chunk, lo, hi int) {}); c != 1 {
		t.Fatalf("budget 1 produced %d chunks", c)
	}
}

func TestForChunksWorkGatesOnWorkNotItems(t *testing.T) {
	defer SetBudget(Budget())
	SetBudget(8)
	// Few items but heavy per-item work: chunk count is bounded by items.
	if c := ForChunksWork(4, MinWork*100, func(chunk, lo, hi int) {}); c != 4 {
		t.Fatalf("4 heavy items split into %d chunks, want 4", c)
	}
	// Many items but sub-MinWork total work: stays inline.
	if c := ForChunksWork(MinWork*4, MinWork-1, func(chunk, lo, hi int) {}); c != 1 {
		t.Fatalf("light loop split into %d chunks, want 1", c)
	}
	// PlanChunks agrees with the dispatch decision.
	if p, c := PlanChunks(MinWork*4, MinWork*4), ForChunks(MinWork*4, func(chunk, lo, hi int) {}); p != c {
		t.Fatalf("PlanChunks %d != ForChunks %d", p, c)
	}
}

func TestNestedDispatchCoversRange(t *testing.T) {
	defer SetBudget(Budget())
	SetBudget(8)
	outer := MinWork * 2
	inner := MinWork * 2
	hits := make([]int32, inner)
	var nestedChunks int32
	// Outer chunks land on pool workers; the nested dispatch inside each
	// chunk must use the identical partition and complete without deadlock.
	For(outer, func(lo, hi int) {
		c := ForChunks(inner, func(chunk, lo2, hi2 int) {
			for i := lo2; i < hi2; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		atomic.StoreInt32(&nestedChunks, int32(c))
	})
	// Every outer chunk ran the nested loop once over the full range.
	outerChunks := PlanChunks(outer, outer)
	for i, h := range hits {
		if int(h) != outerChunks {
			t.Fatalf("index %d visited %d times, want %d", i, h, outerChunks)
		}
	}
	// The nested partition matches the non-nested plan at the same budget.
	if want := PlanChunks(inner, inner); int(nestedChunks) != want {
		t.Fatalf("nested dispatch used %d chunks, plan says %d", nestedChunks, want)
	}
}

// finishWithin fails the test if fn does not return within a generous
// deadline, so a dispatch deadlock fails instead of hanging the suite.
func finishWithin(t *testing.T, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("dispatch did not complete: deadlock")
	}
}

func TestNestedDispatchCompletesWithEveryWorkerBlocked(t *testing.T) {
	defer SetBudget(Budget())
	// The pool is sized to GOMAXPROCS. One outer chunk per worker plus one
	// for the dispatcher means every pool worker sits inside an outer chunk
	// once the first barrier opens, and the second barrier holds them there
	// until every nested dispatch has finished: no idle worker is ever
	// available to help, so each nested dispatch must complete on its own.
	outer := runtime.GOMAXPROCS(0) + 1
	SetBudget(outer)
	// Help tokens are offered without blocking, so wait for earlier tests'
	// leftover tokens to drain: every one of this dispatch's tokens must
	// reach a worker for the first barrier to open.
	ensurePool()
	for len(poolCh) > 0 {
		runtime.Gosched()
	}
	inner := MinWork * 4
	var entered, nestedDone atomic.Int32
	allIn, allNested := make(chan struct{}), make(chan struct{})
	hits := make([]int32, inner)
	finishWithin(t, func() {
		c := ForChunksWork(outer, MinWork*outer, func(_, _, _ int) {
			if entered.Add(1) == int32(outer) {
				close(allIn)
			}
			<-allIn
			ForChunks(inner, func(_, lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			if nestedDone.Add(1) == int32(outer) {
				close(allNested)
			}
			<-allNested
		})
		if c != outer {
			t.Errorf("outer dispatch used %d chunks, want %d", c, outer)
		}
	})
	for i, h := range hits {
		if int(h) != outer {
			t.Fatalf("index %d visited %d times, want %d", i, h, outer)
		}
	}
}

func TestNestedThreeLevelsWithConcurrentDispatchers(t *testing.T) {
	defer SetBudget(Budget())
	SetBudget(4)
	// More top-level dispatchers than GOMAXPROCS, each nesting three
	// dispatch levels, so helpers, dispatchers and nested dispatchers all
	// contend for the same pool.
	dispatchers := 2*runtime.GOMAXPROCS(0) + 1
	n1, n2, n3 := MinWork, MinWork*2, MinWork*4
	var total atomic.Int64
	finishWithin(t, func() {
		var wg sync.WaitGroup
		for d := 0; d < dispatchers; d++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				For(n1, func(_, _ int) {
					For(n2, func(_, _ int) {
						For(n3, func(lo, hi int) {
							total.Add(int64(hi - lo))
						})
					})
				})
			}()
		}
		wg.Wait()
	})
	want := int64(dispatchers * PlanChunks(n1, n1) * PlanChunks(n2, n2) * n3)
	if got := total.Load(); got != want {
		t.Fatalf("covered %d innermost iterations, want %d", got, want)
	}
}

func noopChunk(chunk, lo, hi int) {}

func TestChunkedDispatchAllocatesOnce(t *testing.T) {
	defer SetBudget(Budget())
	SetBudget(4)
	n := MinWork * 4
	if c := PlanChunks(n, n); c < 2 {
		t.Fatalf("dispatch plans %d chunks, want a chunked dispatch", c)
	}
	// The job record is the only allocation a chunked dispatch makes.
	if allocs := testing.AllocsPerRun(200, func() { ForChunks(n, noopChunk) }); allocs != 1 {
		t.Fatalf("chunked dispatch allocates %v times, want 1", allocs)
	}
}

func TestConcurrentDispatchesDrainWithoutDeadlock(t *testing.T) {
	defer SetBudget(Budget())
	SetBudget(8)
	// More concurrent dispatchers than pool workers fills the help queue on
	// a small machine, so dispatchers run their own chunks; everywhere else
	// it exercises the pool under contention.
	const dispatchers = 16
	var total atomic.Int64
	done := make(chan struct{})
	for d := 0; d < dispatchers; d++ {
		go func() {
			defer func() { done <- struct{}{} }()
			For(MinWork*4, func(lo, hi int) {
				var local int64
				for i := lo; i < hi; i++ {
					local++
				}
				total.Add(local)
			})
		}()
	}
	for d := 0; d < dispatchers; d++ {
		<-done
	}
	if got, want := total.Load(), int64(dispatchers*MinWork*4); got != want {
		t.Fatalf("covered %d iterations, want %d", got, want)
	}
}

func BenchmarkDispatchNested(b *testing.B) {
	defer SetBudget(Budget())
	SetBudget(max(2, runtime.GOMAXPROCS(0)))
	// Each outer chunk issues a chunked dispatch of its own, the shape of an
	// attention layer calling a matmul per sample.
	outer := 2 * Budget()
	b.ReportAllocs()
	for b.Loop() {
		ForChunksWork(outer, MinWork*outer, func(_, lo, hi int) {
			for o := lo; o < hi; o++ {
				ForChunks(MinWork*2, noopChunk)
			}
		})
	}
}
