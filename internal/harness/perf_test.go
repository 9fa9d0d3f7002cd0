package harness

import (
	"path/filepath"
	"strings"
	"testing"
)

func TestBenchWriteLoadRoundTrip(t *testing.T) {
	t.Parallel()
	want := &BenchReport{
		Grid:       "quick",
		GoMaxProcs: 4,
		Entries: []BenchEntry{
			{Name: BenchCalibration, Seconds: 0.05, Runs: 5},
			{Name: "compose-1024", Seconds: 0.012, Runs: 3},
		},
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := WriteBench(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := LoadBench(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Grid != want.Grid || got.GoMaxProcs != want.GoMaxProcs || len(got.Entries) != len(want.Entries) {
		t.Fatalf("round trip lost fields: %+v", got)
	}
	for i, e := range got.Entries {
		if e != want.Entries[i] {
			t.Fatalf("entry %d: %+v, want %+v", i, e, want.Entries[i])
		}
	}
}

func TestCompareBenchFlagsRegressions(t *testing.T) {
	t.Parallel()
	base := &BenchReport{Entries: []BenchEntry{
		{Name: BenchCalibration, Seconds: 0.10},
		{Name: "compose-1024", Seconds: 0.020},
		{Name: "encode-topk-2.5M", Seconds: 0.040},
	}}
	cur := &BenchReport{Entries: []BenchEntry{
		{Name: BenchCalibration, Seconds: 0.10},
		{Name: "compose-1024", Seconds: 0.020 * 1.05}, // within tolerance
		{Name: "encode-topk-2.5M", Seconds: 0.040 * 1.5},
	}}
	regs := CompareBench(base, cur, BenchTolerance)
	if len(regs) != 1 {
		t.Fatalf("got %d regressions %v, want exactly the topk one", len(regs), regs)
	}
}

// TestCompareBenchNormalizesByCalibration pins the cross-machine story: on a
// host that runs the calibration spin 2× slower, every entry may be 2× slower
// without tripping the tolerance.
func TestCompareBenchNormalizesByCalibration(t *testing.T) {
	t.Parallel()
	base := &BenchReport{Entries: []BenchEntry{
		{Name: BenchCalibration, Seconds: 0.10},
		{Name: "compose-1024", Seconds: 0.020},
	}}
	slowHost := &BenchReport{Entries: []BenchEntry{
		{Name: BenchCalibration, Seconds: 0.20},
		{Name: "compose-1024", Seconds: 0.041}, // 2.05× raw, 1.025× normalized
	}}
	if regs := CompareBench(base, slowHost, BenchTolerance); len(regs) != 0 {
		t.Fatalf("calibration normalization failed: %v", regs)
	}
	slowHost.Entries[1].Seconds = 0.050 // 1.25× normalized — a real regression
	if regs := CompareBench(base, slowHost, BenchTolerance); len(regs) != 1 {
		t.Fatalf("normalized regression missed: %v", regs)
	}
}

func TestCompareBenchIgnoresNewFlagsMissingEntries(t *testing.T) {
	t.Parallel()
	base := &BenchReport{Entries: []BenchEntry{
		{Name: "compose-1024", Seconds: 0.020},
		{Name: "retired-bench", Seconds: 0.005},
	}}
	cur := &BenchReport{Entries: []BenchEntry{
		{Name: "compose-1024", Seconds: 0.020},
		{Name: "brand-new-bench", Seconds: 99},
	}}
	regs := CompareBench(base, cur, BenchTolerance)
	if len(regs) != 1 || !strings.HasPrefix(regs[0], "retired-bench:") {
		t.Fatalf("want exactly the missing baseline entry flagged, got %v", regs)
	}
	// With the baseline entry present again, the new entry alone passes.
	cur.Entries = append(cur.Entries, BenchEntry{Name: "retired-bench", Seconds: 0.005})
	if regs := CompareBench(base, cur, BenchTolerance); len(regs) != 0 {
		t.Fatalf("entries new in the current run must not regress: %v", regs)
	}
}
