package fabric

import (
	"errors"
	"fmt"

	"github.com/cmlasu/unsync/internal/campaign"
	"github.com/cmlasu/unsync/internal/journal"
	"github.com/cmlasu/unsync/internal/serve"
)

// journalEvent is one line of the coordinator journal: the campaign
// header, a lease-protocol event, or a received trial record, kept in
// a journal.Log: a coordinator killed mid-append loses at most its
// final line.
//
// Durability contract: lease-protocol events (campaign, lease, split,
// fail, done, complete) are fsync'd as written — they are the state a
// restarted coordinator resumes from. Trial lines (built by
// appendTrialEvent, not json.Marshal) are not fsync'd as written: the
// new records of each received run go to the OS in one write, and are
// fsync'd no later than the next protocol event, so a shard's "done"
// event on disk implies every one of its trials is too.
type journalEvent struct {
	Event string `json:"event"`

	// campaign header
	Key    string                `json:"key,omitempty"`
	Trials int                   `json:"trials,omitempty"`
	Prog   string                `json:"prog,omitempty"`
	Params *serve.CampaignParams `json:"params,omitempty"`

	// lease protocol (shard ids start at 1 so omitempty stays honest)
	Shard   int    `json:"shard,omitempty"`
	Lo      int    `json:"lo"`
	Hi      int    `json:"hi"`
	Worker  string `json:"worker,omitempty"`
	Attempt int    `json:"attempt,omitempty"`
	At      int    `json:"at,omitempty"`  // split point
	New     int    `json:"new,omitempty"` // split: stolen shard id
	Err     string `json:"err,omitempty"`

	// trial
	Rec *campaign.TrialRecord `json:"rec,omitempty"`
}

// appendTrialEvent appends the journal line recording rec to b: the
// bytes journal.Line(journalEvent{Event: evTrial, Rec: rec}) writes,
// built with TrialRecord.AppendJSON.
func appendTrialEvent(b []byte, rec *campaign.TrialRecord) []byte {
	b = append(b, `{"event":"trial","lo":0,"hi":0,"rec":`...)
	b = rec.AppendJSON(b)
	return append(b, "}\n"...)
}

// Journal event names.
const (
	evCampaign = "campaign" // header: params key, trial count, params
	evLease    = "lease"    // a shard range leased to a worker
	evSplit    = "split"    // a straggler's tail re-split (work stealing)
	evFail     = "fail"     // a lease failed; the remainder re-pends
	evDone     = "done"     // a lease completed cleanly
	evTrial    = "trial"    // one received trial record
	evComplete = "complete" // every trial received; merge may run
)

// replayState is what a journal replay recovers: the campaign header
// and every received trial record, keyed by trial index.
type replayState struct {
	header *journalEvent
	done   map[int]*campaign.TrialRecord
}

// replayJournal reads a coordinator journal back. Records under a
// different params key fail the replay (a fabric journal belongs to
// exactly one campaign — unlike the shared single-node checkpoint,
// mixing keys here can only mean the config changed under a resume).
// The torn-tail policy is journal.Replay's.
func replayJournal(path, key string) (replayState, error) {
	st := replayState{done: map[int]*campaign.TrialRecord{}}
	err := journal.Replay(path, func(ev journalEvent) error {
		switch ev.Event {
		case evCampaign:
			if ev.Key != key {
				return fmt.Errorf("%w: journal %s was written for params key %s, this campaign derives %s — the program, scheme, seed, spaces, budgets or trial timeout changed under -resume",
					campaign.ErrKeyMismatch, path, ev.Key, key)
			}
			st.header = &ev
		case evTrial:
			if ev.Rec == nil {
				return errors.New("trial event without a record")
			}
			if ev.Rec.Key != key {
				return fmt.Errorf("%w: journal %s trial %d carries key %s, want %s",
					campaign.ErrKeyMismatch, path, ev.Rec.Index, ev.Rec.Key, key)
			}
			st.done[ev.Rec.Index] = ev.Rec
		case evLease, evSplit, evFail, evDone, evComplete:
			// Lease-protocol history: informative for the artifact log,
			// not needed for resume — the done set alone decides what is
			// left to lease.
		default:
			return fmt.Errorf("unknown event %q", ev.Event)
		}
		return nil
	})
	if err != nil {
		return st, fmt.Errorf("fabric: journal %w", err)
	}
	return st, nil
}
