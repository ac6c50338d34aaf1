package fabric

import (
	"bytes"
	"encoding/json"
	"testing"

	"github.com/cmlasu/unsync/internal/campaign"
	"github.com/cmlasu/unsync/internal/journaltest"
)

// TestReplayJournalCorruptionCorpus runs the shared tail-corruption
// corpus against the coordinator-journal replay: corruption is
// tolerated only on the file's final line, where a killed coordinator
// leaves it. Its trial lines also pin wrapTrialEvent to the bytes
// journal.Line writes for the same event.
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
		line := marshal(journalEvent{Event: evTrial, Rec: rec})
		if got := wrapTrialEvent(nil, rec.AppendJSON(nil)); !bytes.Equal(got, append(line, '\n')) {
			t.Fatalf("wrapTrialEvent\n got %s\nwant %s", got, line)
		}
		lines = append(lines, line)
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
