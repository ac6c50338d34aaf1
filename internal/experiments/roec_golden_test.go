package experiments

import (
	"context"
	"testing"

	"github.com/cmlasu/unsync/internal/fault"
)

// TestROECCampaigns checks the §VI-D story on all three campaigns: UnSync
// and Reunion recover every upset inside their ROEC, a persistent
// architectural upset outside Reunion's ROEC is unrecoverable at least
// once, and no campaign corrupts output silently (outputs are compared
// by both schemes). At 200 trials the exact tallies are pinned: the
// campaigns run on the campaign engine, whose sites derive from (seed,
// trial index) alone, so the counts move only if a trial's semantics do.
func TestROECCampaigns(t *testing.T) {
	for _, trials := range []int{40, 200} {
		res, err := ROEC(context.Background(), trials)
		if err != nil {
			t.Fatal(err)
		}
		camps := []struct {
			name string
			got  fault.CampaignResult
		}{
			{"UnSync", res.UnSyncCampaign},
			{"Reunion in-flight", res.ReunionTransient},
			{"Reunion persistent", res.ReunionPersistent},
		}
		for _, c := range camps {
			if c.got.Trials != trials {
				t.Errorf("%d trials: %s campaign tallied %d trials", trials, c.name, c.got.Trials)
			}
			if c.got.SDC != 0 {
				t.Errorf("%d trials: %s campaign SDC = %d (%+v)", trials, c.name, c.got.SDC, c.got)
			}
		}
		for _, c := range camps[:2] {
			if c.got.CorrectRate() != 1 {
				t.Errorf("%d trials: %s correct rate = %.2f (%+v)", trials, c.name, c.got.CorrectRate(), c.got)
			}
		}
		rp := res.ReunionPersistent
		if rp.Unrecoverable == 0 {
			t.Errorf("%d trials: Reunion persistent campaign had no unrecoverable trials (%+v)", trials, rp)
		}
		if rp.CorrectRate() >= res.UnSyncCampaign.CorrectRate() {
			t.Errorf("%d trials: Reunion persistent correct rate %.2f not below UnSync %.2f",
				trials, rp.CorrectRate(), res.UnSyncCampaign.CorrectRate())
		}
		if trials != 200 {
			continue
		}
		want := []fault.CampaignResult{
			{Trials: 200, Recovered: 200},
			{Trials: 200, Recovered: 200},
			{Trials: 200, Benign: 127, Unrecoverable: 73},
		}
		for i, c := range camps {
			if c.got != want[i] {
				t.Errorf("%s campaign = %+v, want %+v", c.name, c.got, want[i])
			}
		}
	}
}
