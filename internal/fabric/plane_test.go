package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"github.com/cmlasu/unsync/internal/campaign"
	"github.com/cmlasu/unsync/internal/stream"
)

// The fleet acceptance pin: a coordinator with a streaming plane
// attached merges the same journal bytes and Result as the single-node
// reference — the plane observes the shard streams, it never reorders
// or rewrites them.
func TestFleetPlaneBitIdentity(t *testing.T) {
	params := testParams(60)
	wantJournal, wantResult := singleNodeRun(t, params)

	prog, err := params.Program()
	if err != nil {
		t.Fatal(err)
	}
	key := params.Spec().Normalized().Key(campaign.ProgHash(prog))
	plane, err := stream.NewPlane(stream.PlaneConfig{
		DLQ: filepath.Join(t.TempDir(), "dlq.jsonl"),
		Key: key,
	})
	if err != nil {
		t.Fatal(err)
	}

	w1, w2 := newWorker(t, nil), newWorker(t, nil)
	merged, result, snap := runFleet(t, Config{
		Workers:  []string{w1.URL, w2.URL},
		Params:   params,
		Shards:   5,
		MinSteal: 2,
		Plane:    plane,
	})
	if err := plane.Close(); err != nil {
		t.Fatalf("plane close (shard streams must be bit-consistent): %v", err)
	}
	if !bytes.Equal(merged, wantJournal) {
		t.Fatal("merged journal differs from single-node checkpoint with the plane attached")
	}
	if !bytes.Equal(result, wantResult) {
		t.Fatalf("fleet result differs with the plane attached:\nfleet:  %s\nsingle: %s", result, wantResult)
	}
	if snap.Done != 60 {
		t.Fatalf("snapshot done=%d, want 60", snap.Done)
	}
	fr := plane.Snapshot()
	if fr.Done != 60 {
		t.Fatalf("plane admitted %d distinct trials, want 60", fr.Done)
	}
	if fr.DLQDepth != 0 {
		t.Fatalf("clean fleet dead-lettered %d trials", fr.DLQDepth)
	}
}

// A restarted coordinator re-opens its plane over the same DLQ
// sidecar: journal-resumed records replay through the plane in index
// order, live arrivals follow, and nothing is double-counted or
// re-dead-lettered. The merged output stays bit-identical to the
// single-node reference.
func TestFleetPlaneSurvivesCoordinatorRestart(t *testing.T) {
	params := testParams(60)
	wantJournal, wantResult := singleNodeRun(t, params)

	prog, err := params.Program()
	if err != nil {
		t.Fatal(err)
	}
	key := params.Spec().Normalized().Key(campaign.ProgHash(prog))
	dir := t.TempDir()
	dlqPath := filepath.Join(dir, "dlq.jsonl")
	journal := filepath.Join(dir, "fleet.jsonl")
	merged := filepath.Join(dir, "merged.jsonl")

	// Seed the sidecar with a prior dead-letter under this campaign's
	// key, standing in for a failure captured before the crash: the
	// restarted plane must replay it, not duplicate it.
	seeded := campaign.TrialRecord{Key: key, Seed: params.Seed, Index: 999, Err: "seeded failure",
		AttemptErrs: []string{"attempt 1 (space=int-reg reg=1 bit=1 addr=0x0 step=1): seeded failure"}}
	sb, err := json.Marshal(stream.Entry{Reason: stream.ReasonRetryExhausted, Rec: seeded})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dlqPath, append(sb, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}

	w1, w2 := newWorker(t, nil), newWorker(t, nil)
	plane1, err := stream.NewPlane(stream.PlaneConfig{DLQ: dlqPath, Key: key})
	if err != nil {
		t.Fatal(err)
	}
	if plane1.DLQDepth() != 1 {
		t.Fatalf("first plane replayed depth=%d, want the seeded 1", plane1.DLQDepth())
	}
	cfg := Config{
		Workers:   []string{w1.URL, w2.URL},
		Params:    params,
		Journal:   journal,
		Merged:    merged,
		Shards:    5,
		MinSteal:  2,
		StopAfter: 20,
		Plane:     plane1,
	}
	c1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Run(context.Background()); !errors.Is(err, campaign.ErrInterrupted) {
		t.Fatalf("interrupted run: %v, want ErrInterrupted", err)
	}
	if err := plane1.Close(); err != nil {
		t.Fatalf("first plane close: %v", err)
	}

	plane2, err := stream.NewPlane(stream.PlaneConfig{DLQ: dlqPath, Key: key})
	if err != nil {
		t.Fatal(err)
	}
	if plane2.DLQDepth() != 1 {
		t.Fatalf("restarted plane replayed depth=%d, want 1", plane2.DLQDepth())
	}
	cfg.StopAfter = 0
	cfg.Resume = true
	cfg.Plane = plane2
	c2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c2.Run(context.Background())
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if err := plane2.Close(); err != nil {
		t.Fatalf("restarted plane close (replay must be bit-identical): %v", err)
	}

	fr := plane2.Snapshot()
	if fr.Done != 60 {
		t.Fatalf("restarted plane admitted %d distinct trials, want 60", fr.Done)
	}
	if fr.DLQDepth != 1 {
		t.Fatalf("restarted plane depth=%d, want the seeded 1 (no re-capture)", fr.DLQDepth)
	}
	after, err := os.ReadFile(dlqPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, append(sb, '\n')) {
		t.Fatal("sidecar bytes changed across the restart: an entry was duplicated or rewritten")
	}

	got, err := os.ReadFile(merged)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantJournal) {
		t.Fatal("merged journal differs from single-node checkpoint after restart with plane")
	}
	rb, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rb, wantResult) {
		t.Fatalf("fleet result differs after restart with plane:\nfleet:  %s\nsingle: %s", rb, wantResult)
	}
}

// Coordinator.ingest is the fleet's only duplicate check. A
// bit-identical repeat (steal overlap, re-lease race) is counted and
// kept away from the plane and the journal; a repeat with a differing
// payload is a determinism violation that aborts the campaign.
func TestRecordIsTheOnlyDuplicateCheck(t *testing.T) {
	plane, err := stream.NewPlane(stream.PlaneConfig{})
	if err != nil {
		t.Fatal(err)
	}
	journal := filepath.Join(t.TempDir(), "fleet.jsonl")
	c, err := New(Config{
		Workers: []string{"http://x"},
		Params:  testParams(10),
		Journal: journal,
		Plane:   plane,
	})
	if err != nil {
		t.Fatal(err)
	}
	first := campaign.TrialRecord{Key: c.key, Seed: 7, Index: 3, Space: "int-reg", Attempts: 2, Err: "boom",
		AttemptErrs: []string{"attempt 1: boom", "attempt 2: boom"}}
	repeat := first
	repeat.AttemptErrs = append([]string(nil), first.AttemptErrs...)
	ingest := func(rec campaign.TrialRecord) error {
		_, err := c.ingest([]campaign.TrialRecord{rec}, nil)
		return err
	}
	if err := ingest(first); err != nil {
		t.Fatalf("first arrival: %v", err)
	}
	if err := ingest(repeat); err != nil {
		t.Fatalf("bit-identical repeat: %v", err)
	}
	if got := c.Snapshot().Duplicates; got != 1 {
		t.Fatalf("Duplicates = %d after one bit-identical repeat, want 1", got)
	}
	if got := plane.Snapshot().Done; got != 1 {
		t.Fatalf("plane Done = %d after a repeat, want 1", got)
	}

	// Every field counts, the per-attempt error chain included.
	outcome := repeat
	outcome.Err, outcome.Outcome = "", "sdc"
	chain := repeat
	chain.AttemptErrs = []string{"attempt 1: boom", "attempt 2: a different cause"}
	for name, differing := range map[string]campaign.TrialRecord{"outcome": outcome, "attempt chain": chain} {
		if err := ingest(differing); !errors.Is(err, errFatal) {
			t.Fatalf("repeat with a differing %s: %v, want an error wrapping errFatal", name, err)
		}
	}
	if got := plane.Snapshot().Done; got != 1 {
		t.Fatalf("plane Done = %d after differing repeats, want 1", got)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := plane.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := replayJournal(journal, c.key)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.done) != 1 || !st.done[3].Equal(first) {
		t.Fatalf("journal holds %d trial records, want only the first arrival", len(st.done))
	}
}
