package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public function it calls.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 for a root span
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"` // since the tracer started
	Dur    float64 `json:"dur_us"`
	N      int     `json:"n,omitempty"` // events the span covers, when it aggregates several
}

// tracer keeps spans in memory; write stores them when the run ends. It is
// used from one goroutine. Spans nest: begin opens a child of the
// innermost open span.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // indices into spans
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) since(at time.Time) float64 { return float64(at.Sub(t.t0).Nanoseconds()) / 1e3 }

func (t *tracer) begin(name string) {
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: t.since(time.Now())})
	t.open = append(t.open, len(t.spans)-1)
}

// end closes the innermost open span and returns its duration.
func (t *tracer) end() time.Duration {
	now := time.Now()
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	s := &t.spans[i]
	s.Dur = t.since(now) - s.Start
	return time.Duration(s.Dur * 1e3)
}

// add records an already-measured span under the innermost open span:
// start is an absolute time, n the number of events it covers.
func (t *tracer) add(name string, start time.Time, dur time.Duration, n int) {
	parent := 0
	if k := len(t.open); k > 0 {
		parent = t.spans[t.open[k-1]].ID
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: t.since(start), Dur: float64(dur.Nanoseconds()) / 1e3, N: n})
}

// spanSummary totals the spans of one name.
type spanSummary struct {
	Name  string  `json:"name"`
	Count int     `json:"count"`
	Total float64 `json:"total_ms"`
	Self  float64 `json:"self_ms"` // total minus the time child spans cover
}

// summarize totals spans by name. A span's self time is its duration minus
// its children's; children of one span never overlap.
func (t *tracer) summarize() []spanSummary {
	child := make(map[int]float64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.Dur
		}
	}
	byName := make(map[string]*spanSummary)
	for _, s := range t.spans {
		sum := byName[s.Name]
		if sum == nil {
			sum = &spanSummary{Name: s.Name}
			byName[s.Name] = sum
		}
		sum.Count++
		sum.Total += s.Dur / 1e3
		sum.Self += (s.Dur - child[s.ID]) / 1e3
	}
	out := make([]spanSummary, 0, len(byName))
	for _, s := range byName {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Total > out[j].Total })
	return out
}

// write stores the environment stamp, the per-name summary and every span
// as one JSON document at path.
func (t *tracer) write(path string, env envStamp) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	doc := struct {
		Env     envStamp      `json:"env"`
		Summary []spanSummary `json:"summary"`
		Spans   []span        `json:"spans"`
	}{env, t.summarize(), t.spans}
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
