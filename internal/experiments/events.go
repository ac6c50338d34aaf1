package experiments

import (
	"context"
	"fmt"

	"github.com/cmlasu/unsync/internal/cmp"
	"github.com/cmlasu/unsync/internal/events"
	"github.com/cmlasu/unsync/internal/report"
	"github.com/cmlasu/unsync/internal/sweep"
	"github.com/cmlasu/unsync/internal/trace"
)

// eventsBenchmark is the workload of the event study.
const eventsBenchmark = "gzip"

// SchemeEvents is one scheme's hardware-counter readout: the raw
// taxonomy counters, the per-event delta against the baseline scheme
// (nil for the baseline itself) and the topdown slot decomposition.
type SchemeEvents struct {
	Scheme  cmp.Scheme
	Counts  events.Counts
	Delta   map[string]int64
	Topdown events.Topdown
}

// EventsResult is the hardware-counter event study (DESIGN §13): every
// built-in scheme on one workload, baseline first.
type EventsResult struct {
	Benchmark string
	Schemes   []SchemeEvents
}

// Events runs the four built-in schemes on gzip at o.RC and reads out
// their named counters, with deltas against the baseline.
func Events(ctx context.Context, o Options) (EventsResult, error) {
	res := EventsResult{Benchmark: eventsBenchmark}
	prof, ok := trace.ByName(eventsBenchmark)
	if !ok {
		return res, fmt.Errorf("events: no %s profile", eventsBenchmark)
	}
	schemes := []cmp.Scheme{cmp.Baseline, cmp.UnSync, cmp.Reunion, cmp.TMR}
	rows, err := sweep.MapContext(ctx, schemes, o.Workers, func(ctx context.Context, s cmp.Scheme) (SchemeEvents, error) {
		r, err := cmp.RunContext(ctx, s, o.RC, prof)
		if err != nil {
			return SchemeEvents{}, fmt.Errorf("events %s: %w", s, err)
		}
		td, _ := events.TopdownOf(r.Events)
		return SchemeEvents{Scheme: s, Counts: r.Events, Topdown: td}, nil
	})
	if err != nil {
		return res, err
	}
	for i := 1; i < len(rows); i++ {
		rows[i].Delta = events.Delta(rows[i].Counts, rows[0].Counts)
	}
	res.Schemes = rows
	return res, nil
}

// RenderTopdown renders the slot-level topdown decomposition, one row
// per scheme.
func (r EventsResult) RenderTopdown() *report.Table {
	t := report.New(fmt.Sprintf("Topdown decomposition (%s measurement window)", r.Benchmark),
		"Scheme", "Slots", "Retiring", "Frontend", "Backend", "BadGate")
	for _, se := range r.Schemes {
		td := se.Topdown
		t.Row(string(se.Scheme), report.I(td.Slots),
			report.Pct(100*td.Retiring), report.Pct(100*td.Frontend),
			report.Pct(100*td.Backend), report.Pct(100*td.BadGate))
	}
	t.Note("slots = width × cycles; the four buckets partition them exactly")
	return t
}

// RenderEvents renders the per-event counts: one row per event observed
// by any scheme, one column per scheme, with the delta against the
// baseline in parentheses for the redundant schemes.
func (r EventsResult) RenderEvents() *report.Table {
	cols := []string{"Event", "Unit"}
	union := events.Counts{}
	for _, se := range r.Schemes {
		cols = append(cols, string(se.Scheme))
		union.Merge(se.Counts)
	}
	t := report.New(fmt.Sprintf("Hardware counters (%s measurement window)", r.Benchmark), cols...)
	for _, name := range union.Names() {
		unit := "?"
		if e, ok := events.Lookup(name); ok {
			unit = string(e.Unit)
		}
		row := []string{name, unit}
		for _, se := range r.Schemes {
			cell := report.I(se.Counts[name])
			if d := se.Delta[name]; d != 0 {
				cell = fmt.Sprintf("%s (%+d)", cell, d)
			}
			row = append(row, cell)
		}
		t.Row(row...)
	}
	t.Note("(±n) is the delta against the baseline scheme on the same window")
	return t
}
