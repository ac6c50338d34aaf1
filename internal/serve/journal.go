package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"github.com/cmlasu/unsync/internal/journal"
	"github.com/cmlasu/unsync/internal/resilience"
)

// jobEvent is one line of the jobs journal: a submit (full request) or
// a state transition, kept in a journal.Log: every event is fsync'd as
// written, and replaying the file reconstructs every job's latest
// state.
type jobEvent struct {
	Event string `json:"event"` // "submit" or "state"
	Seq   uint64 `json:"seq,omitempty"`
	ID    string `json:"id"`

	// submit fields
	Request    *JobRequest `json:"request,omitempty"`
	DeadlineMS int64       `json:"deadline_ms,omitempty"`

	// state fields
	State  JobState        `json:"state,omitempty"`
	Error  string          `json:"error,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
}

// journalRetry is the backoff schedule for journal appends: a
// transient filesystem error (EINTR, brief ENOSPC) should not lose a
// job transition when a short retry absorbs it.
var journalRetry = resilience.Backoff{Base: 10 * time.Millisecond, Max: 200 * time.Millisecond, Attempts: 3}

// appendEvent writes one event and fsyncs it: a job transition
// survives a SIGKILL the instant appendEvent returns. The retry sleeps
// run outside the journal's lock, so a stalled disk never makes every
// other job's transition queue behind this one's backoff.
func appendEvent(jn *journal.Log, ev jobEvent) error {
	return resilience.Retry(context.Background(), journalRetry, func(context.Context) error {
		return jn.Append(ev, true)
	})
}

// loadJournal replays the jobs journal: it returns every job keyed by
// ID at its latest recorded state, in submit order, plus the highest
// sequence number seen. The torn-tail policy is journal.Replay's.
func loadJournal(path string) (jobs []*Job, maxSeq uint64, err error) {
	byID := map[string]*Job{}
	err = journal.Replay(path, func(ev jobEvent) error {
		switch ev.Event {
		case "submit":
			if ev.Request == nil {
				return errors.New("submit without request")
			}
			job := &Job{
				ID:         ev.ID,
				Kind:       ev.Request.Kind,
				State:      StateQueued,
				Request:    *ev.Request,
				DeadlineMS: ev.DeadlineMS,
			}
			byID[ev.ID] = job
			jobs = append(jobs, job)
			maxSeq = max(maxSeq, ev.Seq)
		case "state":
			job, ok := byID[ev.ID]
			if !ok {
				return fmt.Errorf("state for unknown job %s", ev.ID)
			}
			job.State = ev.State
			job.Error = ev.Error
			if ev.Result != nil {
				job.Result = ev.Result
			}
		default:
			return fmt.Errorf("unknown event %q", ev.Event)
		}
		return nil
	})
	if err != nil {
		return nil, 0, fmt.Errorf("serve: journal %w", err)
	}
	return jobs, maxSeq, nil
}
