package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from outside the layer.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's origin
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the causing span, -1 for none
	Batch  int    `json:"batch"`  // batch index, -1 outside a batch
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how untraced runs stay free of its cost.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// add records a span and returns its index (-1 on a nil tracer).
func (t *tracer) add(name string, parent, batch int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: start.Sub(t.origin).Nanoseconds(),
		End: end.Sub(t.origin).Nanoseconds(), Parent: parent, Batch: batch})
	return len(t.spans) - 1
}

// reserve records a span whose end is not known yet, so that spans it
// causes can name it as their parent; finish sets its end.
func (t *tracer) reserve(name string, parent, batch int, start time.Time) int {
	return t.add(name, parent, batch, start, start)
}

func (t *tracer) finish(id int, end time.Time) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].End = end.Sub(t.origin).Nanoseconds()
	t.mu.Unlock()
}

// perBatch returns the durations in milliseconds of the spans named name,
// indexed by batch (NaN where batch i has no such span).
func (t *tracer) perBatch(name string, k int) []float64 {
	out := make([]float64, k)
	for i := range out {
		out[i] = math.NaN()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Name == name && s.Batch >= 0 && s.Batch < k {
			out[s.Batch] = float64(s.End-s.Start) / 1e6
		}
	}
	return out
}

// durations returns the durations in milliseconds of every span named name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// write stores the spans as a JSON array.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// percentile is the nearest-rank p-th percentile of the non-NaN values
// of xs, with the number of values it was taken over.
func percentile(xs []float64, p float64) (float64, int) {
	vals := make([]float64, 0, len(xs))
	for _, x := range xs {
		if !math.IsNaN(x) {
			vals = append(vals, x)
		}
	}
	if len(vals) == 0 {
		return 0, 0
	}
	sort.Float64s(vals)
	rank := int(math.Ceil(p/100*float64(len(vals)))) - 1
	if rank < 0 {
		rank = 0
	}
	return vals[rank], len(vals)
}

func median(xs []float64) float64 {
	v, _ := percentile(xs, 50)
	return v
}

// minus returns a[i] - Σ bs[j][i] per batch: a layer's self time when a
// is its entry's span and bs the spans of the next entry inward.
func minus(a []float64, bs ...[]float64) []float64 {
	out := append([]float64(nil), a...)
	for _, b := range bs {
		for i := range out {
			out[i] -= b[i]
		}
	}
	return out
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
