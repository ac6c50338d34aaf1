package stream

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"github.com/cmlasu/unsync/internal/journaltest"
)

func TestDLQPersistsAndReplays(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dlq.jsonl")
	q, err := OpenDLQ(path, "k")
	if err != nil {
		t.Fatal(err)
	}
	if wrote, err := q.Offer(ReasonRetryExhausted, failedRec(1)); !wrote || err != nil {
		t.Fatalf("retry-exhausted record: wrote=%v err=%v", wrote, err)
	}
	if wrote, err := q.Offer(ReasonMalformed, rec(2, "no-such-outcome")); !wrote || err != nil {
		t.Fatalf("malformed record: wrote=%v err=%v", wrote, err)
	}
	if q.Depth() != 2 {
		t.Fatalf("depth=%d, want 2", q.Depth())
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}

	entries, err := ReadDLQ(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("sidecar holds %d entries, want 2", len(entries))
	}
	if entries[0].Reason != ReasonRetryExhausted || entries[1].Reason != ReasonMalformed {
		t.Fatalf("reasons %q, %q", entries[0].Reason, entries[1].Reason)
	}
	// The full per-attempt error chain survives the round trip — the
	// whole point of the DLQ: no cause is lost to the retry loop.
	want := failedRec(1)
	if !want.Equal(entries[0].Rec) {
		t.Fatalf("dead-lettered record mutated:\ngot:  %+v\nwant: %+v", entries[0].Rec, want)
	}

	// Reopening replays the sidecar: depth is restored and a replayed
	// failure is never written twice.
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := OpenDLQ(path, "k")
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Close()
	if q2.Depth() != 2 {
		t.Fatalf("replayed depth=%d, want 2", q2.Depth())
	}
	if wrote, err := q2.Offer(ReasonRetryExhausted, failedRec(1)); wrote || err != nil {
		t.Fatalf("replayed trial re-dead-lettered: wrote=%v err=%v", wrote, err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("sidecar grew on a replayed offer")
	}
}

// A shared sidecar never suppresses another campaign's captures:
// replay is scoped to the opening campaign's key.
func TestDLQReplayScopedToKey(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dlq.jsonl")
	q, err := OpenDLQ(path, "k")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Offer(ReasonRetryExhausted, failedRec(0)); err != nil {
		t.Fatal(err)
	}
	q.Close()

	q2, err := OpenDLQ(path, "other-key")
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Close()
	if q2.Depth() != 0 {
		t.Fatalf("foreign entries replayed: depth=%d, want 0", q2.Depth())
	}
	other := failedRec(0)
	other.Key = "other-key"
	if wrote, _ := q2.Offer(ReasonRetryExhausted, other); !wrote {
		t.Fatal("foreign replay suppressed this campaign's capture")
	}
}

func TestDLQCountingOnlyMode(t *testing.T) {
	q, err := OpenDLQ("", "")
	if err != nil {
		t.Fatal(err)
	}
	if wrote, err := q.Offer(ReasonRetryExhausted, failedRec(0)); !wrote || err != nil {
		t.Fatalf("counting-only offer: wrote=%v err=%v", wrote, err)
	}
	if q.Depth() != 1 {
		t.Fatalf("depth=%d, want 1", q.Depth())
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
}

// dlqLines marshals n dead-letter entries as intact journal lines for
// the shared corruption corpus.
func dlqLines(t testing.TB, n int) [][]byte {
	t.Helper()
	lines := make([][]byte, n)
	for i := range lines {
		b, err := json.Marshal(Entry{Reason: ReasonRetryExhausted, Rec: failedRec(i)})
		if err != nil {
			t.Fatal(err)
		}
		lines[i] = b
	}
	return lines
}

// The sidecar loader runs the repository-wide corruption corpus: torn
// tails are skipped and mid-file garbage fails the load. Another
// campaign's entries in a shared sidecar are well-formed lines, not
// garbage.
func TestDLQReadCorruptionCorpus(t *testing.T) {
	journaltest.Check(t, dlqLines(t, 3), func(path string) (int, error) {
		entries, err := ReadDLQ(path)
		return len(entries), err
	})
}

// Appending any newline-free fragment to a valid sidecar must never
// change what ReadDLQ recovers: the fragment is the torn tail of a
// killed writer and the loader skips it.
func FuzzDLQTornTail(f *testing.F) {
	for _, seed := range journaltest.Seeds() {
		f.Add(seed)
	}
	lines := dlqLines(f, 2)
	var base bytes.Buffer
	for _, l := range lines {
		base.Write(l)
		base.WriteByte('\n')
	}
	f.Fuzz(func(t *testing.T, junk []byte) {
		path := filepath.Join(t.TempDir(), "dlq.jsonl")
		data := append(append([]byte(nil), base.Bytes()...), journaltest.TornTail(junk)...)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		entries, err := ReadDLQ(path)
		if err != nil {
			t.Fatalf("torn tail broke the loader: %v", err)
		}
		// A torn fragment that happens to be complete JSON may parse as
		// one extra trailing entry; the intact prefix must survive
		// unchanged regardless.
		if len(entries) < 2 {
			t.Fatalf("recovered %d entries, want >= 2 intact", len(entries))
		}
		for i := 0; i < 2; i++ {
			if !entries[i].Rec.Equal(failedRec(i)) {
				t.Fatalf("intact entry %d mutated", i)
			}
		}
	})
}
