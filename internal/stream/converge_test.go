package stream

import (
	"testing"

	"github.com/cmlasu/unsync/internal/stats"
)

// The tracker must classify records exactly as campaign.Result.finish
// does: harness errors and unknown outcome names are failed, everything
// else feeds the Wilson interval on the SDC rate.
func TestTrackerMatchesCampaignClassification(t *testing.T) {
	tr := NewTracker()
	tr.Add(rec(0, "sdc"))
	tr.Add(rec(1, "benign"))
	tr.Add(failedRec(2))
	tr.Add(rec(3, "no-such-outcome"))
	c := tr.Snapshot()
	if c.Done != 4 || c.Failed != 2 {
		t.Fatalf("done=%d failed=%d, want 4, 2", c.Done, c.Failed)
	}
	if c.Rate != 0.5 {
		t.Fatalf("rate=%v, want 0.5 (1 sdc over 2 successful)", c.Rate)
	}
	lo, hi := stats.Wilson(1, 2, 1.96)
	if c.Lo != lo || c.Hi != hi || c.Width != hi-lo {
		t.Fatalf("interval [%v,%v] width %v, want Wilson(1,2,1.96) = [%v,%v]", c.Lo, c.Hi, c.Width, lo, hi)
	}
}

func TestTrackerEmptySnapshot(t *testing.T) {
	c := NewTracker().Snapshot()
	lo, hi := stats.Wilson(0, 0, 1.96)
	if c.Done != 0 || c.Rate != 0 || c.Lo != lo || c.Hi != hi {
		t.Fatalf("empty tracker snapshot %+v, want zero counts and Wilson(0,0)", c)
	}
}
