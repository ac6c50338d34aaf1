package main

import (
	"net/http/httptest"
	"testing"

	"github.com/cmlasu/unsync/internal/campaign"
	"github.com/cmlasu/unsync/internal/fabric"
	"github.com/cmlasu/unsync/internal/stream"
)

// The fleet's /metrics body is a scrape contract: pin its exact bytes
// for a fixed coordinator snapshot, with and without a plane attached.
func TestWriteMetricsGolden(t *testing.T) {
	snap := fabric.Snapshot{
		Trials: 4000, Done: 2500, Shards: 7,
		ShardsByState: map[string]int{"pending": 1, "running": 2, "done": 4},
		Leases:        9, Failures: 2, Splits: 1, Duplicates: 13,
	}
	const head = `# HELP unsync_fleet_trials Trials in the campaign.
# TYPE unsync_fleet_trials gauge
unsync_fleet_trials 4000
# HELP unsync_fleet_trials_done Trial records received and journaled.
# TYPE unsync_fleet_trials_done gauge
unsync_fleet_trials_done 2500
`
	const planeGauges = `# HELP unsync_fleet_dlq_depth Distinct dead-lettered trials in the DLQ sidecar.
# TYPE unsync_fleet_dlq_depth gauge
unsync_fleet_dlq_depth 1
# HELP unsync_fleet_window_sdc_rate SDC rate over the streaming plane's sliding window.
# TYPE unsync_fleet_window_sdc_rate gauge
unsync_fleet_window_sdc_rate 0.25
`
	const tail = `# HELP unsync_fleet_shards Shards by lease state.
# TYPE unsync_fleet_shards gauge
unsync_fleet_shards{state="pending"} 1
unsync_fleet_shards{state="running"} 2
unsync_fleet_shards{state="done"} 4
# HELP unsync_fleet_leases_total Shard leases granted since start.
# TYPE unsync_fleet_leases_total counter
unsync_fleet_leases_total 9
# HELP unsync_fleet_lease_failures_total Leases that failed and re-pended their range.
# TYPE unsync_fleet_lease_failures_total counter
unsync_fleet_lease_failures_total 2
# HELP unsync_fleet_steals_total Straggler ranges re-split by idle workers.
# TYPE unsync_fleet_steals_total counter
unsync_fleet_steals_total 1
# HELP unsync_fleet_duplicate_records_total Bit-identical duplicate records deduped on arrival.
# TYPE unsync_fleet_duplicate_records_total counter
unsync_fleet_duplicate_records_total 13
`
	plane, err := stream.NewPlane(stream.PlaneConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range []string{"sdc", "benign", "benign", "benign"} {
		plane.Observe(campaign.TrialRecord{Key: "k", Index: i, Attempts: 1, Outcome: o})
	}
	plane.Observe(campaign.TrialRecord{Key: "k", Index: 4, Attempts: 2, Err: "boom"})
	if err := plane.Close(); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name  string
		plane *stream.Plane
		want  string
	}{
		{"no-plane", nil, head + tail},
		{"plane", plane, head + planeGauges + tail},
	} {
		rec := httptest.NewRecorder()
		writeMetrics(rec, snap, tc.plane)
		if got := rec.Body.String(); got != tc.want {
			t.Errorf("%s: /metrics body:\n%s\nwant:\n%s", tc.name, got, tc.want)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
			t.Errorf("%s: Content-Type = %q", tc.name, ct)
		}
	}
}
