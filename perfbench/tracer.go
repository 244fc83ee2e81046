package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one recorded interval at a layer boundary. Parent is the id of the
// span that caused it (0 for a root); Op identifies the operation — a
// client request, a row, a probe — that the spans of one request share.
type span struct {
	ID     int64  `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
}

// maxSpans bounds the in-memory span log; later spans still feed the
// per-name totals but are not kept for the dump.
const maxSpans = 1 << 18

// tracer keeps spans in memory, and per span name the count, total time and
// self time (a span's duration minus the part its child spans cover). A nil
// *tracer records nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	mu      sync.Mutex
	epoch   time.Time
	spans   []span
	open    map[int64]openSpan
	covered map[int64]int64 // span id -> time covered by its ended children
	dropped int64
	next    int64
	totals  map[string]*spanTotal
}

type openSpan struct {
	span
	idx int // index in spans, or -1 when the log was full
}

type spanTotal struct {
	Count       int64
	Total, Self time.Duration
	durs        []float64 // ms, for medians
}

func newTracer() *tracer {
	return &tracer{
		epoch:   time.Now(),
		open:    make(map[int64]openSpan),
		covered: make(map[int64]int64),
		totals:  make(map[string]*spanTotal),
	}
}

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, op int64) int64 {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	o := openSpan{span: span{ID: t.next, Name: name, Start: now, Parent: parent, Op: op}, idx: -1}
	if len(t.spans) < maxSpans {
		o.idx = len(t.spans)
		t.spans = append(t.spans, o.span)
	} else {
		t.dropped++
	}
	t.open[o.ID] = o
	return o.ID
}

// end closes a span.
func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	t.finish(id, int64(time.Since(t.epoch)), -1)
}

// record adds an interval measured elsewhere (a job's queue wait, read from
// its timestamps) as a span.
func (t *tracer) record(name string, start, end time.Time, parent, op int64) {
	if t == nil {
		return
	}
	id := t.begin(name, parent, op)
	t.finish(id, int64(end.Sub(t.epoch)), int64(start.Sub(t.epoch)))
}

func (t *tracer) finish(id, now, start int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	o, ok := t.open[id]
	if !ok {
		return
	}
	delete(t.open, id)
	if start >= 0 {
		o.Start = start
	}
	o.End = now
	if o.idx >= 0 {
		t.spans[o.idx] = o.span
	}
	dur := now - o.Start
	covered := t.covered[id]
	delete(t.covered, id)
	if o.Parent != 0 {
		t.covered[o.Parent] += dur
	}
	tot := t.totals[o.Name]
	if tot == nil {
		tot = &spanTotal{}
		t.totals[o.Name] = tot
	}
	tot.Count++
	tot.Total += time.Duration(dur)
	tot.Self += time.Duration(dur - covered)
	tot.durs = append(tot.durs, float64(dur)/float64(time.Millisecond))
}

// total returns the totals of one span name (zero when never recorded).
func (t *tracer) total(name string) spanTotal {
	t.mu.Lock()
	defer t.mu.Unlock()
	if tot := t.totals[name]; tot != nil {
		return *tot
	}
	return spanTotal{}
}

// dump writes the kept spans and the per-name totals as JSON.
func (t *tracer) dump(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	type nameTotal struct {
		Count   int64   `json:"count"`
		TotalMS float64 `json:"total_ms"`
		SelfMS  float64 `json:"self_ms"`
	}
	totals := make(map[string]nameTotal, len(t.totals))
	for n, tot := range t.totals {
		totals[n] = nameTotal{tot.Count, ms(tot.Total), ms(tot.Self)}
	}
	doc := struct {
		Spans   []span               `json:"spans"`
		Dropped int64                `json:"dropped"`
		Totals  map[string]nameTotal `json:"totals"`
	}{t.spans, t.dropped, totals}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
