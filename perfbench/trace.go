package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer of the system.
// Times are seconds since the recorder started.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // -1 for a root span
	Name   string  `json:"name"`
	Run    string  `json:"run"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
}

// recorder keeps the spans of a traced run in memory until the run ends. A
// nil recorder records nothing, so measured runs pay only a nil check.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) at(t time.Time) float64 { return t.Sub(r.t0).Seconds() }

// begin opens a span and returns its id (-1 when not recording).
func (r *recorder) begin(name, run string, parent int) int {
	if r == nil {
		return -1
	}
	now := r.at(time.Now())
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans), Parent: parent, Name: name, Run: run, Start: now, End: now})
	return len(r.spans) - 1
}

// end closes a span opened by begin.
func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := r.at(time.Now())
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// add records a span whose edges were observed elsewhere, such as a job's
// queued and started stamps.
func (r *recorder) add(name, run string, parent int, start, end time.Time) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans), Parent: parent, Name: name, Run: run,
		Start: r.at(start), End: r.at(end)})
	return len(r.spans) - 1
}

// selfByName sums the self time of every span, keyed by span name.
func (r *recorder) selfByName() map[string]float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[int][]interval)
	for _, s := range r.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	out := make(map[string]float64)
	for _, s := range r.spans {
		out[s.Name] += selfTime(interval{s.Start, s.End}, children[s.ID])
	}
	return out
}

// write saves every span as one JSON document.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	raw, err := json.MarshalIndent(r.spans, "", " ")
	r.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
