package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the program must agree with.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// The result lines must carry exactly the metrics BENCHMARK.json names, with
// the same units, for exactly the workloads it names.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}

	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	slices.Sort(names)
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloadNames())
	}

	e2e := summarize(&outcome{walls: []float64{1}, cpus: []float64{1}, setups: []float64{1},
		latencies: []float64{1}, attempted: 1}, false).Metrics
	if len(e2e) != len(spec.EndToEnd) {
		t.Errorf("program prints %d end-to-end metrics, BENCHMARK.json names %d", len(e2e), len(spec.EndToEnd))
	}
	for _, m := range spec.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s (%s): program has %+v", m.Name, m.Unit, got)
		}
	}

	layers := perLayer()
	if len(layers) != len(spec.PerLayer) {
		t.Fatalf("program has %d per-layer metrics, BENCHMARK.json names %d", len(layers), len(spec.PerLayer))
	}
	for i, m := range spec.PerLayer {
		if layers[i] != [2]string{m.Name, m.Unit} {
			t.Errorf("per-layer %d: BENCHMARK.json %s (%s), program %v", i, m.Name, m.Unit, layers[i])
		}
	}
}

func TestExperimentIDsMatchRegistry(t *testing.T) {
	if !registryMatches() {
		t.Error("experimentIDs no longer matches harness.ExperimentIDs()")
	}
}
