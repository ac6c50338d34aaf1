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
		_, n, _, err := loadJournal(path, "deadbeef", "checksum", len(lines))
		return n, err
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
		recs, n, _, err := loadJournal(path, "deadbeef", "checksum", len(lines))
		if err != nil {
			t.Fatalf("torn tail broke the loader: %v", err)
		}
		if n != len(lines) {
			t.Fatalf("recovered %d records, want %d", n, len(lines))
		}
		for i := range lines {
			if i >= len(recs) || recs[i].Key == "" {
				t.Fatalf("record %d lost to a torn tail", i)
			}
		}
	})
}

// TestLoadJournalIndexesByTrial pins the loader's slice contract: the
// last record for an index wins, indices outside [0, trials) and other
// keys' records are skipped (the latter counted), and a record is
// decoded to the same value whether or not its Key and Prog match the
// expected strings.
func TestLoadJournalIndexesByTrial(t *testing.T) {
	rec := func(key, prog string, i int, outcome string) []byte {
		r := TrialRecord{Key: key, Prog: prog, Seed: 7, Index: i, Space: "cb", Bit: 3,
			Step: 40, Attempts: 1, Outcome: outcome}
		return r.AppendJSON(nil)
	}
	lines := [][]byte{
		rec("deadbeef", "checksum", 0, "benign"),
		rec("deadbeef", "checksum", 3, "sdc"),
		rec("deadbeef", "checksum", -1, "benign"),
		rec("deadbeef", "checksum", 10, "benign"),
		rec("cafef00d", "checksum", 1, "benign"),
		rec("deadbeef", "other", 2, "hang"),
		rec("deadbeef", "checksum", 3, "recovered"),
	}
	var data []byte
	for _, l := range lines {
		data = append(append(data, l...), '\n')
	}
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, n, foreign, err := loadJournal(path, "deadbeef", "checksum", 10)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("loaded %d indices, want 3 (0, 2, 3)", n)
	}
	if len(recs) != 4 {
		t.Errorf("slice holds %d slots, want 4: it grows to the highest in-range index only", len(recs))
	}
	if foreign["cafef00d"] != 1 || len(foreign) != 1 {
		t.Errorf("foreign = %v, want cafef00d:1", foreign)
	}
	want := map[int]TrialRecord{}
	for _, l := range lines {
		var r TrialRecord
		if err := json.Unmarshal(l, &r); err != nil {
			t.Fatal(err)
		}
		if r.Key == "deadbeef" && r.Index >= 0 && r.Index < 10 {
			want[r.Index] = r
		}
	}
	for i := range recs {
		w, ok := want[i]
		switch {
		case !ok && recs[i].Key != "":
			t.Errorf("slot %d holds %+v, want no record", i, recs[i])
		case ok && !recs[i].Equal(w):
			t.Errorf("slot %d = %+v, want %+v", i, recs[i], w)
		}
	}
	if recs[3].Outcome != "recovered" {
		t.Errorf("trial 3 outcome %q: the last record for an index must win", recs[3].Outcome)
	}
}
