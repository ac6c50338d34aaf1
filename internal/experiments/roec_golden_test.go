package experiments

import (
	"context"
	"testing"

	"github.com/cmlasu/unsync/internal/fault"
)

// TestROECReunionGolden pins the §VI-D Reunion campaigns (seeds 102 and
// 103) at 200 trials. The tallies were recorded with the scalar
// per-trial kernel; the campaigns now run through the batched lane
// engine, which draws the same sites in the same order, so the counts
// must not move.
func TestROECReunionGolden(t *testing.T) {
	res, err := ROEC(context.Background(), 200)
	if err != nil {
		t.Fatal(err)
	}
	if want := (fault.CampaignResult{Trials: 200, Recovered: 200}); res.ReunionTransient != want {
		t.Errorf("Reunion transient campaign = %+v, want %+v", res.ReunionTransient, want)
	}
	if want := (fault.CampaignResult{Trials: 200, Benign: 151, Unrecoverable: 49}); res.ReunionPersistent != want {
		t.Errorf("Reunion persistent campaign = %+v, want %+v", res.ReunionPersistent, want)
	}
}
