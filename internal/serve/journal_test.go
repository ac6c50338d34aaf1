package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/cmlasu/unsync/internal/journaltest"
)

// journalLines marshals n well-formed submit events, one journal line
// each (no trailing newline — journaltest adds those).
func journalLines(t testing.TB, n int) [][]byte {
	t.Helper()
	lines := make([][]byte, n)
	for i := range lines {
		b, err := json.Marshal(jobEvent{
			Event: "submit",
			Seq:   uint64(i + 1),
			ID:    fmt.Sprintf("job-%04d", i),
			Request: &JobRequest{
				Kind:     KindCampaign,
				Campaign: &CampaignParams{Prog: "checksum", Scheme: "unsync", Trials: 10, Seed: 7},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		lines[i] = b
	}
	return lines
}

// TestLoadJournalCorruptionCorpus runs the shared tail-corruption
// corpus against the jobs-journal loader: a torn (or garbage) final
// line is the expected residue of a kill and is skipped, but
// corruption followed by valid lines means the file was damaged and
// must fail the load loudly.
func TestLoadJournalCorruptionCorpus(t *testing.T) {
	lines := journalLines(t, 9)
	journaltest.Check(t, lines, func(path string) (int, error) {
		jobs, _, err := loadJournal(path)
		return len(jobs), err
	})
}

// FuzzLoadJournalTornTail asserts kill tolerance under arbitrary tail
// bytes: any unterminated fragment appended to a valid jobs journal
// must neither error nor change the replayed jobs.
func FuzzLoadJournalTornTail(f *testing.F) {
	for _, seed := range journaltest.Seeds() {
		f.Add(seed)
	}
	lines := journalLines(f, 4)
	var base []byte
	for _, line := range lines {
		base = append(base, line...)
		base = append(base, '\n')
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "jobs.jsonl")
		torn := append(append([]byte(nil), base...), journaltest.TornTail(data)...)
		if err := os.WriteFile(path, torn, 0o644); err != nil {
			t.Fatal(err)
		}
		jobs, maxSeq, err := loadJournal(path)
		if err != nil {
			t.Fatalf("torn tail broke the loader: %v", err)
		}
		if len(jobs) != len(lines) {
			t.Fatalf("replayed %d jobs, want %d", len(jobs), len(lines))
		}
		if maxSeq != uint64(len(lines)) {
			t.Fatalf("maxSeq = %d, want %d", maxSeq, len(lines))
		}
	})
}

// A torn tail left by a kill must not corrupt the journal for the next
// restart: the first restart's appends must not be glued onto the
// fragment, or the second restart fails on a garbage line mid-file.
func TestTornJournalSurvivesTwoRestarts(t *testing.T) {
	stateDir := t.TempDir()
	torn := `{"event":"submit","seq":1,"id":"job-` // no newline: a kill mid-append
	if err := os.WriteFile(filepath.Join(stateDir, "jobs.jsonl"), []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}
	runner := func(ctx context.Context, job *Job) (json.RawMessage, error) {
		return json.RawMessage(`{"answer":42}`), nil
	}
	srv, ts := newRunnerServer(t, Config{StateDir: stateDir}, runner)
	_, job := submit(t, ts, campaignReq(3))
	waitState(t, ts, job.ID, StateDone)
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts.Close()

	srv2, ts2 := newRunnerServer(t, Config{StateDir: stateDir}, runner)
	if got := getJob(t, ts2, job.ID); got.State != StateDone {
		t.Fatalf("job after restart: %s, want done", got.State)
	}
	if err := srv2.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}
