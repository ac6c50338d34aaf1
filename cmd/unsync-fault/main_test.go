package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/cmlasu/unsync/internal/campaign"
	"github.com/cmlasu/unsync/internal/fabric"
	"github.com/cmlasu/unsync/internal/serve"
	"github.com/cmlasu/unsync/internal/stream"
)

// lockedBuffer is a bytes.Buffer safe for the concurrent writes run
// makes to stderr.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

// runCmd drives the command in-process and returns its exit status,
// stdout and stderr.
func runCmd(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout bytes.Buffer
	var stderr lockedBuffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.b.String()
}

// newWorker starts one shard-executing job service on loopback.
func newWorker(t *testing.T) string {
	t.Helper()
	s, err := serve.New(serve.Config{StateDir: t.TempDir(), EnableShards: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// The fleet's contract, literally: the single-node command line minus
// its single-node flags, plus -fleet, gives the single-node -workers 1
// checkpoint bytes as the merged journal and the same JSON result, also
// across a -stop-after interruption and a -resume.
func TestFleetMatchesSingleNodeCommand(t *testing.T) {
	dir := t.TempDir()
	path := func(name string) string { return filepath.Join(dir, name) }
	campaignFlags := []string{"-prog", "checksum", "-n", "300", "-seed", "7", "-workers", "1"}

	code, _, stderr := runCmd(t, append(campaignFlags, "-batch", "1", "-checkpoint", path("ref"), "-json", path("refj"))...)
	if code != 0 {
		t.Fatalf("single-node run exited %d: %s", code, stderr)
	}
	// Clipped so each run's appended flags get their own array.
	fleet := slices.Clip(append(campaignFlags, "-fleet", newWorker(t)+","+newWorker(t)))

	code, stdout, stderr := runCmd(t, append(fleet, "-journal", path("j"), "-merged", path("m"), "-json", path("fj"))...)
	if code != 0 {
		t.Fatalf("fleet run exited %d: %s", code, stderr)
	}
	if !strings.Contains(stdout, "ran 300/300 trials") || !strings.Contains(stdout, "fleet: ") {
		t.Errorf("fleet table lacks the tally or the fleet note:\n%s", stdout)
	}
	if !bytes.Equal(readFile(t, path("m")), readFile(t, path("ref"))) {
		t.Error("merged journal differs from the single-node checkpoint")
	}
	if !bytes.Equal(readFile(t, path("fj")), readFile(t, path("refj"))) {
		t.Error("fleet -json differs from the single-node -json")
	}

	// An interrupted fleet run reports its partial result and exits 3;
	// -resume on the same journal completes it to the same bytes.
	code, stdout, stderr = runCmd(t, append(fleet, "-journal", path("rj"), "-stop-after", "100", "-json", path("pj"))...)
	if code != 3 {
		t.Fatalf("stopped fleet run exited %d, want 3: %s", code, stderr)
	}
	if !strings.Contains(stdout, "ran 100/300 trials") {
		t.Errorf("stopped fleet run does not report the partial result:\n%s", stdout)
	}
	var partial campaign.Result
	if err := json.Unmarshal(readFile(t, path("pj")), &partial); err != nil || partial.Ran != 100 {
		t.Errorf("stopped fleet run -json: Ran %d, err %v; want 100", partial.Ran, err)
	}
	code, _, stderr = runCmd(t, append(fleet, "-journal", path("rj"), "-resume", "-merged", path("rm"), "-json", path("rfj"))...)
	if code != 0 {
		t.Fatalf("resumed fleet run exited %d: %s", code, stderr)
	}
	if !bytes.Equal(readFile(t, path("rm")), readFile(t, path("ref"))) {
		t.Error("resumed merged journal differs from the single-node checkpoint")
	}
	if !bytes.Equal(readFile(t, path("rfj")), readFile(t, path("refj"))) {
		t.Error("resumed fleet -json differs from the single-node -json")
	}
}

// A fleet campaign whose trials all fail still completes: it reports the
// table and -json and exits 2, like a single-node run with failed trials.
func TestFleetFailedTrialsExit2(t *testing.T) {
	failing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req serve.ShardRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		var b []byte
		sent := 0
		for i := req.Lo; i < req.Hi; i++ {
			if slices.Contains(req.Skip, i) {
				continue
			}
			rec := campaign.TrialRecord{Key: req.Key, Index: i, Attempts: 2, Err: "boom"}
			b = append(rec.AppendJSON(b), '\n')
			sent++
		}
		eof, _ := json.Marshal(serve.ShardLine{EOF: true, Sent: sent})
		w.Write(append(append(b, eof...), '\n'))
	}))
	t.Cleanup(failing.Close)

	jsonPath := filepath.Join(t.TempDir(), "r.json")
	code, stdout, stderr := runCmd(t, "-prog", "checksum", "-n", "20", "-seed", "7", "-fleet", failing.URL,
		"-journal", filepath.Join(t.TempDir(), "j"), "-json", jsonPath)
	if code != 2 {
		t.Fatalf("fleet run with failed trials exited %d, want 2: %s", code, stderr)
	}
	if !strings.Contains(stdout, "ran 20/20 trials (20 failed)") {
		t.Errorf("table does not report the failed trials:\n%s", stdout)
	}
	var res campaign.Result
	if err := json.Unmarshal(readFile(t, jsonPath), &res); err != nil || res.Failed != 20 {
		t.Errorf("-json: Failed %d, err %v; want 20", res.Failed, err)
	}
}

// A flag that only one executor reads is rejected in the other mode,
// before anything runs, and the error names it.
func TestWrongModeFlagsExit1(t *testing.T) {
	const url = "http://127.0.0.1:1" // never contacted: the flags are refused first
	for _, args := range [][]string{
		{"-fleet", url, "-batch", "1"},
		{"-fleet", url, "-checkpoint", "ck.jsonl"},
		{"-fleet", url, "-ci-width", "0.05"},
		{"-journal", "j.jsonl"},
		{"-merged", "m.jsonl"},
		{"-shards", "2"},
		{"-min-steal", "2"},
		{"-shard-attempts", "2"},
		{"-lease-timeout", "1s"},
		{"-metrics", "127.0.0.1:0"},
	} {
		flagName := args[len(args)-2]
		code, stdout, stderr := runCmd(t, args...)
		if code != 1 || stdout != "" || !strings.Contains(stderr, flagName) {
			t.Errorf("%v: exit %d, stderr %q; want exit 1 naming %s and no output", args, code, stderr, flagName)
		}
	}
}

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
