package simclock

import (
	"math"
	"testing"
)

func TestPrefixShares(t *testing.T) {
	t.Parallel()
	shares := PrefixShares([]int{10, 30, 60})
	want := []float64{0.1, 0.4, 1}
	for i := range want {
		if math.Abs(shares[i]-want[i]) > 1e-12 {
			t.Fatalf("share[%d] = %v, want %v", i, shares[i], want[i])
		}
	}
	if last := shares[len(shares)-1]; last != 1 {
		t.Fatalf("final prefix share %v, want exactly 1", last)
	}
	for i := 1; i < len(shares); i++ {
		if shares[i] < shares[i-1] {
			t.Fatalf("prefix shares not monotone: %v", shares)
		}
	}
	// Degenerate empty buckets still produce a valid (all-ready-at-end)
	// schedule.
	for _, s := range PrefixShares([]int{0, 0}) {
		if s != 1 {
			t.Fatalf("zero-element shares = %v, want all 1", s)
		}
	}
}

func TestIterScheduleReadyAndFinish(t *testing.T) {
	t.Parallel()
	prefix := PrefixShares([]int{1, 1, 2})
	s := NewIterSchedule(10, 2, 4, prefix)
	if got := s.ComputeDone(); got != 16 {
		t.Fatalf("ComputeDone %v, want 16", got)
	}
	// Bucket 0 is ready after forward + 1/4 of backward.
	if got := s.ReadyAt(0); got != 13 {
		t.Fatalf("ReadyAt(0) = %v, want 13", got)
	}
	if got := s.ReadyAt(2); got != 16 {
		t.Fatalf("ReadyAt(2) = %v, want 16 (last bucket waits for full backward)", got)
	}
	// The serialized model: every bucket waits for all of backward.
	serial := NewIterSchedule(10, 2, 4, nil)
	for i := 0; i < 3; i++ {
		if serial.ReadyAt(i) != 16 {
			t.Fatalf("serialized ReadyAt(%d) = %v, want 16", i, serial.ReadyAt(i))
		}
	}
	// Finish floors at the compute end: hidden communication cannot finish
	// an iteration before backward does.
	if got := s.Finish(14); got != 16 {
		t.Fatalf("Finish(14) = %v, want compute floor 16", got)
	}
	if got := s.Finish(20); got != 20 {
		t.Fatalf("Finish(20) = %v, want 20", got)
	}
}

func TestTimelineLaunchBarrier(t *testing.T) {
	t.Parallel()
	tl := NewTimeline(3)
	tl.Set(0, 1)
	tl.Advance(1, 5)
	tl.Set(2, 3)
	if got := tl.Max(); got != 5 {
		t.Fatalf("Max = %v, want 5", got)
	}
	// The straggler (rank 1) holds the launch for everyone.
	launch := tl.LaunchTime(func(r int) float64 { return tl.Clock(r) + 1 })
	if launch != 6 {
		t.Fatalf("LaunchTime = %v, want 6", launch)
	}
	if tl.World() != 3 {
		t.Fatalf("World = %d, want 3", tl.World())
	}
}

func TestWaitInterval(t *testing.T) {
	t.Parallel()
	// Overlap schedule: forward 2s, backward 4s, bucket 0 ready halfway
	// through backward (prefix 0.5) at t=4, bucket 1 at t=6.
	s := NewIterSchedule(0, 2, 4, []float64{0.5, 1})

	// Idle stream, launch held by a slower rank at t=7: wait [4, 7).
	from, dur := s.WaitInterval(0, 0, 7)
	if from != 4 || dur != 3 {
		t.Fatalf("WaitInterval = (%v, %v), want (4, 3)", from, dur)
	}
	// Busy stream: the wait cannot start before the stream frees at t=5.
	from, dur = s.WaitInterval(0, 5, 7)
	if from != 5 || dur != 2 {
		t.Fatalf("WaitInterval(busy) = (%v, %v), want (5, 2)", from, dur)
	}
	// The barrier holder itself: launch equals its own ready time, no wait.
	from, dur = s.WaitInterval(1, 0, 6)
	if from != 6 || dur != 0 {
		t.Fatalf("WaitInterval(holder) = (%v, %v), want (6, 0)", from, dur)
	}
	// A launch in the past (stream freed after the barrier) is negative.
	if _, dur = s.WaitInterval(0, 8, 7); dur >= 0 {
		t.Fatalf("WaitInterval(past launch) dur = %v, want negative", dur)
	}
}
