package main

// In-memory span recording for the traced run. Spans are taken only in
// this package, around its calls into each layer of the system; the
// program itself is not instrumented further. A nil *tracer records
// nothing, so untraced passes run the same code at the cost of a nil
// check per span.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// spanRec is one finished span. Times are nanoseconds since the
// tracer's epoch.
type spanRec struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []spanRec
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// span is an open span; end records it. The zero span (from a nil
// tracer) is inert.
type span struct {
	t   *tracer
	rec spanRec
}

// start opens a span named "<layer>.<what>" under parent (the zero
// span for a root).
func (t *tracer) start(name string, parent span) span {
	if t == nil {
		return span{}
	}
	return span{t: t, rec: spanRec{
		ID:     t.ids.Add(1),
		Parent: parent.rec.ID,
		Name:   name,
		Start:  time.Since(t.epoch).Nanoseconds(),
	}}
}

// child opens a span under s.
func (s span) child(name string) span { return s.t.start(name, s) }

// end closes the span and keeps it.
func (s span) end() {
	if s.t == nil {
		return
	}
	s.rec.End = time.Since(s.t.epoch).Nanoseconds()
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, s.rec)
	s.t.mu.Unlock()
}

// layerOf maps a span name to its layer: the text before the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// selfTimes sums each layer's self time in seconds: a span's duration
// minus the part of it that its children cover (their union, since
// parallel children may overlap).
func selfTimes(spans []spanRec) map[string]float64 {
	kids := map[int64][]spanRec{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]float64{}
	for _, s := range spans {
		covered := coveredNs(s, kids[s.ID])
		out[layerOf(s.Name)] += float64(s.End-s.Start-covered) / 1e9
	}
	return out
}

// coveredNs is the length of the union of the children's intervals,
// clipped to the parent's.
func coveredNs(parent spanRec, children []spanRec) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	return total + curHi - curLo
}

// write saves the spans and the per-layer self times as JSON at path
// and returns the self times.
func (t *tracer) write(path string) (map[string]float64, error) {
	t.mu.Lock()
	spans := append([]spanRec(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].ID < spans[j].ID })
	self := selfTimes(spans)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	data, err := json.Marshal(struct {
		SelfSeconds map[string]float64 `json:"self_seconds"`
		Spans       []spanRec          `json:"spans"`
	}{self, spans})
	if err != nil {
		return nil, err
	}
	return self, os.WriteFile(path, data, 0o644)
}
