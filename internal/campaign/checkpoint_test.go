package campaign

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"github.com/cmlasu/unsync/internal/journaltest"
)

// checkpointLines marshals n well-formed trial records under key, one
// journal line each (no trailing newline — journaltest adds those).
func checkpointLines(t testing.TB, key string, n int) [][]byte {
	t.Helper()
	lines := make([][]byte, n)
	for i := range lines {
		b, err := json.Marshal(TrialRecord{
			Key: key, Prog: "checksum", Seed: 7, Index: i,
			Space: "int-reg", Reg: uint8(i % 16), Bit: uint8(i % 64),
			Step: uint64(10 + i), Detected: i%2 == 0, Attempts: 1,
			Outcome: "benign",
		})
		if err != nil {
			t.Fatal(err)
		}
		lines[i] = b
	}
	return lines
}

// TestLoadJournalCorruptionCorpus runs the shared tail-corruption
// corpus against the checkpoint loader: a torn final line is skipped,
// and corruption followed by valid lines fails the load.
func TestLoadJournalCorruptionCorpus(t *testing.T) {
	lines := checkpointLines(t, "deadbeef", 12)
	journaltest.Check(t, lines, func(path string) (int, error) {
		recs, _, err := loadJournal(path, "deadbeef")
		return len(recs), err
	})
}

// FuzzLoadJournalTornTail asserts the kill-tolerance invariant under
// arbitrary tail bytes: appending any unterminated fragment to a valid
// checkpoint must never change what resume recovers and never error.
func FuzzLoadJournalTornTail(f *testing.F) {
	for _, seed := range journaltest.Seeds() {
		f.Add(seed)
	}
	lines := checkpointLines(f, "deadbeef", 5)
	var base []byte
	for _, line := range lines {
		base = append(base, line...)
		base = append(base, '\n')
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "ck.jsonl")
		torn := append(append([]byte(nil), base...), journaltest.TornTail(data)...)
		if err := os.WriteFile(path, torn, 0o644); err != nil {
			t.Fatal(err)
		}
		recs, _, err := loadJournal(path, "deadbeef")
		if err != nil {
			t.Fatalf("torn tail broke the loader: %v", err)
		}
		if len(recs) != len(lines) {
			t.Fatalf("recovered %d records, want %d", len(recs), len(lines))
		}
		for i := range lines {
			if _, ok := recs[i]; !ok {
				t.Fatalf("record %d lost to a torn tail", i)
			}
		}
	})
}
