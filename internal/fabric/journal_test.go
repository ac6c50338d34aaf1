package fabric

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/cmlasu/unsync/internal/campaign"
	"github.com/cmlasu/unsync/internal/journaltest"
)

// TestReplayJournalCorruptionCorpus runs the shared tail-corruption
// corpus against the coordinator-journal replay: corruption is
// tolerated only on the file's final line, where a killed coordinator
// leaves it. Its trial lines are the records' checkpoint lines.
func TestReplayJournalCorruptionCorpus(t *testing.T) {
	const key = "deadbeef"
	marshal := func(ev journalEvent) []byte {
		b, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	lines := [][]byte{marshal(journalEvent{Event: evCampaign, Key: key, Trials: 6, Prog: "checksum"})}
	for i := 0; i < 6; i++ {
		rec := &campaign.TrialRecord{
			Key: key, Index: i, Space: "int-reg", Step: uint64(i + 1), Attempts: 1, Outcome: "benign",
		}
		if i == 2 {
			rec.Outcome, rec.Err, rec.AttemptErrs = "", "site <bad> & \"quoted\"", []string{"attempt 1"}
		}
		lines = append(lines, rec.AppendJSON(nil))
	}
	journaltest.Check(t, lines, func(path string) (int, error) {
		st, err := replayJournal(path, key)
		if err != nil {
			return 0, err
		}
		n := len(st.done)
		if st.header != nil {
			n++ // the header line is a recovered record too
		}
		return n, nil
	})
}

// A trial line in the envelope the coordinator journal once wrapped
// records in, {"event":"trial",...,"rec":<record>}, fails a resume
// loudly and names its line: trial lines are the checkpoint's, and no
// second decoder reads the old form.
func TestResumeRejectsEnvelopedTrialLine(t *testing.T) {
	params := testParams(10)
	path := filepath.Join(t.TempDir(), "fleet.jsonl")
	c := newTestCoordinator(t, Config{Params: params, Journal: path})
	rec := synthRecord(c, 3)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fmt.Fprintf(f, `{"event":"trial","lo":0,"hi":0,"rec":%s}`+"\n", rec.AppendJSON(nil)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = New(Config{Workers: []string{"http://x"}, Params: params, Journal: path, Resume: true})
	if err == nil || !strings.Contains(err.Error(), `line 2: unknown event "trial"`) {
		t.Fatalf("resume over an enveloped trial line: %v, want unknown event \"trial\" at line 2", err)
	}
}
