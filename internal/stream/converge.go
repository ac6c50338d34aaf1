package stream

import (
	"github.com/cmlasu/unsync/internal/campaign"
	"github.com/cmlasu/unsync/internal/fault"
	"github.com/cmlasu/unsync/internal/stats"
)

// Tracker is the live convergence tracker: it accumulates the same
// (SDC, successful) counts the campaign's finish() derives and exposes
// the Wilson interval on the lifetime SDC rate at any moment, so an
// operator can see how far a running campaign is from a target CI
// width while there is still time to act on it.
//
// The tracker observes; it never decides. The campaign's early
// stopping still evaluates only at fixed round boundaries
// (campaign.Spec.CIWidth), so the stopping point — and therefore the
// Result — never depends on when anyone looked at this tracker.
//
// Not safe for concurrent use; the Plane serializes access.
type Tracker struct {
	done   uint64 // records observed (successful + failed)
	failed uint64 // records with a harness error or malformed outcome
	n      uint64 // successful trials (the rate denominator)
	k      uint64 // SDC trials
}

// wilsonZ is the tracker's Wilson multiplier: 1.96 ≈ 95%, the
// campaign default (campaign.Spec.Z).
const wilsonZ = 1.96

// NewTracker builds an empty tracker.
func NewTracker() *Tracker { return &Tracker{} }

// Add folds one record in, classifying it exactly as the campaign
// tally would: records carrying a harness error or an unknown outcome
// name count as failed, everything else contributes to the rate.
func (t *Tracker) Add(rec campaign.TrialRecord) {
	t.done++
	o, known := fault.OutcomeByName(rec.Outcome)
	if rec.Err != "" || !known {
		t.failed++
		return
	}
	t.n++
	if o == fault.OutcomeSDC {
		t.k++
	}
}

// Convergence is the tracker's point-in-time view.
type Convergence struct {
	Done   uint64  // records observed
	Failed uint64  // failed or malformed records
	Rate   float64 // lifetime SDC rate (k/n; 0 when n == 0)
	Lo, Hi float64 // Wilson interval bounds on the rate
	Width  float64 // Hi - Lo: the campaign's early-stop criterion
}

// Snapshot computes the current convergence state.
func (t *Tracker) Snapshot() Convergence {
	c := Convergence{Done: t.done, Failed: t.failed}
	c.Lo, c.Hi = stats.Wilson(t.k, t.n, wilsonZ)
	c.Width = c.Hi - c.Lo
	if t.n > 0 {
		c.Rate = float64(t.k) / float64(t.n)
	}
	return c
}
