package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one traced call into a layer: its name, interval and the
// span that caused it (Parent is the parent's ID, 0 for a root).
// Detached marks a child measured outside its parent's interval: the
// trace.CountProbe emission that stands in for the emission fused
// into a machine-model or stackdist call. Its whole duration is
// subtracted from the parent's self time.
type Span struct {
	ID       int           `json:"id"`
	Parent   int           `json:"parent"`
	Name     string        `json:"name"`
	Start    time.Duration `json:"start_ns"`
	End      time.Duration `json:"end_ns"`
	Detached bool          `json:"detached,omitempty"`
}

// Dur is the span's wall duration.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// Tracer keeps spans in memory; the traced run writes them out once it
// ends. Spans may be added from several goroutines.
type Tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

func newTracer() *Tracer { return &Tracer{t0: time.Now()} }

// Do runs fn inside a root span named name and returns the span's ID.
func (t *Tracer) Do(name string, fn func()) int {
	start := time.Since(t.t0)
	fn()
	return t.Add(Span{Name: name, Start: start, End: time.Since(t.t0)})
}

// Add records an already-measured span and returns its ID.
func (t *Tracer) Add(s Span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// Adopt makes span child a detached child of span parent.
func (t *Tracer) Adopt(child, parent int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[child-1].Parent = parent
	t.spans[child-1].Detached = true
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// WriteJSON writes every span to path.
func (t *Tracer) WriteJSON(path string) error {
	b, err := json.Marshal(t.Spans())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns each span's self time by ID: its duration minus
// the part of its interval that its attached children cover (the
// union, so overlapping children count once, clipped to the parent),
// minus the full duration of its detached children.
func selfTimes(spans []Span) map[int]time.Duration {
	children := map[int][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		var ivs [][2]time.Duration
		var detached time.Duration
		for _, c := range children[s.ID] {
			if c.Detached {
				detached += c.Dur()
				continue
			}
			lo, hi := max(c.Start, s.Start), min(c.End, s.End)
			if hi > lo {
				ivs = append(ivs, [2]time.Duration{lo, hi})
			}
		}
		out[s.ID] = s.Dur() - covered(ivs) - detached
	}
	return out
}

// covered is the total length of the union of intervals.
func covered(ivs [][2]time.Duration) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total time.Duration
	var curLo, curHi time.Duration
	open := false
	for _, iv := range ivs {
		if !open || iv[0] > curHi {
			if open {
				total += curHi - curLo
			}
			curLo, curHi, open = iv[0], iv[1], true
			continue
		}
		curHi = max(curHi, iv[1])
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// layerTotals sums self time per span name.
func layerTotals(spans []Span) map[string]time.Duration {
	st := selfTimes(spans)
	self := map[string]time.Duration{}
	for _, s := range spans {
		self[s.Name] += st[s.ID]
	}
	return self
}
