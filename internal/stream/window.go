package stream

import (
	"github.com/cmlasu/unsync/internal/campaign"
	"github.com/cmlasu/unsync/internal/fault"
)

// Window is a sliding count-window SDC-rate aggregator: it remembers
// the classification of the last Size observed records and reports the
// SDC rate over just that window. A campaign's lifetime rate converges
// and stops moving; the windowed rate is what shows drift — a workload
// phase with a different vulnerability profile, or a sick worker
// suddenly producing garbage.
//
// The window is count-based, not time-based, so its contents derive
// from the record stream alone and the readout is deterministic under
// a fake clock. Not safe for concurrent use; the Plane serializes
// access under its own lock.
type Window struct {
	size int
	buf  []windowCell
	head int // next write position
	n    int // cells occupied
	ok   int // successful trials in window
	sdc  int // SDC trials in window
}

// windowCell is one record's classification.
type windowCell struct {
	ok  bool // classified successfully (counted in the rate denominator)
	sdc bool // classified OutcomeSDC
}

// NewWindow builds a window over the last size records (minimum 1).
func NewWindow(size int) *Window {
	if size < 1 {
		size = 1
	}
	return &Window{size: size, buf: make([]windowCell, size)}
}

// Add folds one record in, evicting the oldest once the window is
// full. Failed and malformed records occupy a slot but stay out of the
// rate denominator, mirroring how the campaign tally excludes them.
func (w *Window) Add(rec campaign.TrialRecord) {
	cell := windowCell{}
	if o, known := fault.OutcomeByName(rec.Outcome); rec.Err == "" && known {
		cell.ok = true
		cell.sdc = o == fault.OutcomeSDC
	}
	if w.n == w.size {
		old := w.buf[w.head]
		if old.ok {
			w.ok--
			if old.sdc {
				w.sdc--
			}
		}
	} else {
		w.n++
	}
	w.buf[w.head] = cell
	w.head = (w.head + 1) % w.size
	if cell.ok {
		w.ok++
		if cell.sdc {
			w.sdc++
		}
	}
}

// Len reports how many records the window currently holds.
func (w *Window) Len() int { return w.n }

// Rate returns the SDC rate over the window's successful trials (0
// when none).
func (w *Window) Rate() float64 {
	if w.ok == 0 {
		return 0
	}
	return float64(w.sdc) / float64(w.ok)
}
