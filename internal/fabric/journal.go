package fabric

import (
	"bytes"
	"encoding/json"
	"fmt"

	"github.com/cmlasu/unsync/internal/campaign"
	"github.com/cmlasu/unsync/internal/journal"
	"github.com/cmlasu/unsync/internal/serve"
)

// The coordinator journal is a journal.Log of two kinds of line: a
// journalEvent (the campaign header or a lease-protocol event), which
// always opens with {"event":, and a received trial record in the
// checkpoint's line format (TrialRecord.AppendJSON), which never does.
// A coordinator killed mid-append loses at most its final line.
//
// Resume reads only the campaign header and the trial lines
// (replayJournal); the other lease-protocol events (lease, split, fail,
// done, complete) are history for the artifact log. Durability: every
// protocol event is fsync'd as written, and trial lines are not — the
// new records of each received run go to the OS in one write. Each
// fsync therefore makes durable every trial line written before its
// event: the header is on disk before any lease is granted, and a
// shard's "done" event on disk implies every one of its trials is too.
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
}

// eventPrefix opens every journalEvent line and no trial line.
var eventPrefix = []byte(`{"event":`)

// Journal event names.
const (
	evCampaign = "campaign" // header: params key, trial count, params
	evLease    = "lease"    // a shard range leased to a worker
	evSplit    = "split"    // a straggler's tail re-split (work stealing)
	evFail     = "fail"     // a lease failed; the remainder re-pends
	evDone     = "done"     // a lease completed cleanly
	evComplete = "complete" // every trial received; merge may run
)

// replayState is what a journal replay recovers: the campaign header
// and every received trial record, keyed by trial index.
type replayState struct {
	header *journalEvent
	done   map[int]*campaign.TrialRecord
}

// journalLine is one decoded coordinator-journal line: an event, or,
// when isEvent is false, a trial record.
type journalLine struct {
	isEvent bool
	ev      journalEvent
	rec     campaign.TrialRecord
}

// replayJournal reads a coordinator journal back. Records under a
// different params key fail the replay (a fabric journal belongs to
// exactly one campaign — unlike the shared single-node checkpoint,
// mixing keys here can only mean the config changed under a resume).
// Trial lines decode through TrialRecord.DecodeKeyed, sharing the key
// and the header's program hash. The torn-tail policy is
// journal.Replay's.
func replayJournal(path, key string) (replayState, error) {
	st := replayState{done: map[int]*campaign.TrialRecord{}}
	prog := "" // the header's program hash, once read
	decode := func(raw []byte, l *journalLine) error {
		if l.isEvent = bytes.HasPrefix(raw, eventPrefix); l.isEvent {
			return json.Unmarshal(raw, &l.ev)
		}
		_, err := l.rec.DecodeKeyed(raw, key, prog)
		return err
	}
	err := journal.ReplayDecode(path, decode, func(l journalLine) error {
		if !l.isEvent {
			if l.rec.Key != key {
				return fmt.Errorf("%w: journal %s trial %d carries key %s, want %s",
					campaign.ErrKeyMismatch, path, l.rec.Index, l.rec.Key, key)
			}
			rec := l.rec
			st.done[rec.Index] = &rec
			return nil
		}
		switch ev := l.ev; ev.Event {
		case evCampaign:
			if ev.Key != key {
				return fmt.Errorf("%w: journal %s was written for params key %s, this campaign derives %s — the program, scheme, seed, spaces or budgets changed under -resume",
					campaign.ErrKeyMismatch, path, ev.Key, key)
			}
			st.header, prog = &ev, ev.Prog
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
