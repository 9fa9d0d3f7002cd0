// Command perfbench is the repository's end-to-end benchmark. It drives the
// system only through its public functions — the experiment registry with an
// engine it builds itself, core.Run, the serve tier over HTTP, and the trace
// and audit entry points — and times those calls from outside.
//
//	bash perfbench/run.sh --workload grid-replay --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the last line of standard output is a JSON object carrying
// every end-to-end metric of BENCHMARK.json; with --trace 1 the run is traced
// and the object carries the per-layer metrics instead. README.md beside this
// file explains the workloads and how to read a traced run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is the state one invocation shares with its workload.
type bench struct {
	seed    uint64
	seconds float64
	work    string    // scratch directory, removed at exit
	rec     *recorder // nil unless --trace 1
}

// outcome is what a workload measured and checked.
type outcome struct {
	setups    []float64 // seconds per set-up
	walls     []float64 // timed-phase wall seconds per round
	cpus      []float64 // timed-phase CPU seconds per round
	latencies []float64 // seconds per completed operation
	// limit is the latency within which an operation counts as on time;
	// 0 means the workload has no latency limit.
	limit     float64
	attempted int
	failed    int
	problems  []string          // failed output checks
	layers    map[string]metric // per-layer metrics (traced runs)
}

func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(*bench) (*outcome, error){
	"grid-replay":  runGridReplay,
	"train-direct": runTrainDirect,
	"serve-mix":    runServeMix,
}

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Uint64("seed", 1, "input seed (must be at least 1)")
	seconds := flag.Float64("seconds", 30, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seed < 1 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload %s --seed N>=1 --seconds S --trace 0|1\n", strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	if err := mainErr(*name, run, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func mainErr(name string, run func(*bench) (*outcome, error), seed uint64, seconds float64, traced bool) error {
	work, err := filepath.Abs(filepath.Join(".bench_build", "work-"+strconv.Itoa(os.Getpid())))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(work)
	b := &bench{seed: seed, seconds: seconds, work: work}
	if traced {
		b.rec = newRecorder()
	}
	out, err := run(b)
	if err != nil {
		return err
	}
	res := summarize(out, traced)
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "perfbench: CHECK FAILED:", p)
	}
	if traced {
		path := filepath.Join(".bench_build", fmt.Sprintf("trace-%s-seed%d.json", name, seed))
		if err := b.rec.write(path); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(b.rec.spans), path)
	}
	printTable(os.Stderr, name, out, res, traced)
	raw, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(raw))
	return nil
}

// summarize turns an outcome into the result line: end-to-end metrics for a
// measured run, per-layer metrics for a traced one.
func summarize(o *outcome, traced bool) result {
	res := result{Correct: len(o.problems) == 0, Attempted: o.attempted, Failed: o.failed}
	if traced {
		res.Metrics = o.layers
		return res
	}
	ontime := 0
	for _, l := range o.latencies {
		if o.limit == 0 || l <= o.limit {
			ontime++
		}
	}
	res.Metrics = map[string]metric{
		"wall_s":      {median(o.walls), "s"},
		"cpu_s":       {median(o.cpus), "s"},
		"peak_rss_mb": {peakRSSMB(), "MB"},
		"setup_s":     {median(o.setups), "s"},
		"done_p50_s":  {percentile(o.latencies, 0.50), "s"},
		"done_p90_s":  {percentile(o.latencies, 0.90), "s"},
		"ontime_frac": {float64(ontime) / float64(max(o.attempted, 1)), "frac"},
	}
	return res
}

func printTable(w *os.File, name string, o *outcome, res result, traced bool) {
	fmt.Fprintf(w, "perfbench: %s: %d rounds, %d operations attempted, %d failed (error_frac %.4g), correct=%v\n",
		name, len(o.walls), o.attempted, o.failed, float64(o.failed)/float64(max(o.attempted, 1)), res.Correct)
	if len(o.walls) > 0 {
		fmt.Fprintf(w, "perfbench: round wall seconds: min %.4g, p25 %.4g, median %.4g, p75 %.4g, max %.4g\n",
			percentile(o.walls, 0), percentile(o.walls, 0.25), median(o.walls), percentile(o.walls, 0.75), percentile(o.walls, 1))
	}
	if !traced && !percentileValid(len(o.latencies), 0.90) {
		fmt.Fprintf(w, "perfbench: done_p90_s rests on %d operations, fewer than %d lie beyond it\n", len(o.latencies), minBeyond)
	}
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's peak resident set so far, in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// timer measures one round's wall and CPU time.
type timer struct {
	wall time.Time
	cpu  float64
}

func startTimer() timer { return timer{time.Now(), cpuSeconds()} }

// stop appends the round's wall and CPU seconds to the outcome.
func (t timer) stop(o *outcome) float64 {
	wall := time.Since(t.wall).Seconds()
	o.walls = append(o.walls, wall)
	o.cpus = append(o.cpus, cpuSeconds()-t.cpu)
	return wall
}

// nproc is the core count the workloads size their parallelism to.
func nproc() int { return runtime.GOMAXPROCS(0) }
