package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Times are nanoseconds since the
// tracer started; Parent is 0 for a root span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Run    int    `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; write dumps them once at exit. A nil
// *tracer records nothing, so untraced code paths call it unchanged.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	run   int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: clockNow()} }

// newRun starts a new run id: spans of one workload iteration share it.
func (t *tracer) newRun() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.run++
	t.mu.Unlock()
}

// begin opens a span under parent and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := int64(clockNow().Sub(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.run, Name: name, Start: now, End: now})
	return id
}

// end closes span id and returns its duration in nanoseconds.
func (t *tracer) end(id int) int64 {
	if t == nil || id == 0 {
		return 0
	}
	now := int64(clockNow().Sub(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	return t.spans[id-1].dur()
}

// snapshot copies the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write dumps every span as JSON to path.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that the union of its children's intervals covers.
// Children that run in parallel are counted once, so a parent whose
// children overlap never reports negative self time.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the kids' intervals, clipped to
// the parent's interval.
func covered(parent span, kids []span) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curLo, curHi, open = x[0], x[1], true
		case x[0] > curHi:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		case x[1] > curHi:
			curHi = x[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// sumDur totals the durations of the spans named name.
func sumDur(spans []span, name string) int64 {
	var total int64
	for _, s := range spans {
		if s.Name == name {
			total += s.dur()
		}
	}
	return total
}
