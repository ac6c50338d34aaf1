package stream

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/cmlasu/unsync/internal/campaign"
	"github.com/cmlasu/unsync/internal/journal"
)

// DLQ reasons.
const (
	// ReasonRetryExhausted marks a trial whose every retry-with-reseed
	// attempt failed with a harness error; the entry's record carries
	// the full per-attempt error chain (TrialRecord.AttemptErrs).
	ReasonRetryExhausted = "retry-exhausted"
	// ReasonMalformed marks a record whose outcome name resolves to no
	// known fault.Outcome — a journal from a newer schema, or a
	// corrupted line that still parsed as JSON.
	ReasonMalformed = "malformed-outcome"
)

// Entry is one dead-lettered trial: the reason it was quarantined plus
// the full record — original seed, derived site, attempt count and the
// complete per-attempt error chain — everything needed to replay the
// trial by hand (`unsync-fault -n 1 -seed <seed>` reaches index i via
// the deterministic site derivation) or to diff a fixed harness
// against the captured failure.
type Entry struct {
	Reason string               `json:"reason"`
	Rec    campaign.TrialRecord `json:"rec"`
}

// DLQ is the dead-letter queue: an fsync'd JSONL sidecar of Entry
// lines, kept in a journal.Log. Opening an existing sidecar replays it
// first, so a restarted coordinator (or a resumed campaign replaying
// its journal through the plane) never writes the same trial twice —
// the sidecar only grows by genuinely new failures. Every append is
// fsync'd before Offer returns: a dead-lettered trial survives a kill
// the same way a journaled one does.
//
// A DLQ opened with an empty path counts depth but persists nothing —
// the counting-only mode behind progress readouts with no -dlq flag.
type DLQ struct {
	mu    sync.Mutex
	log   *journal.Log // nil in counting-only mode
	seen  map[int]bool
	depth atomic.Uint64
}

// OpenDLQ opens (creating if needed) the sidecar at path and replays
// its existing entries. key, when non-empty, filters the replay to
// entries of that campaign (campaign.Spec.Key) — a shared sidecar
// never suppresses another campaign's captures. An empty path selects
// counting-only mode.
func OpenDLQ(path, key string) (*DLQ, error) {
	q := &DLQ{seen: make(map[int]bool)}
	if path == "" {
		return q, nil
	}
	prior, err := ReadDLQ(path)
	if err != nil {
		return nil, err
	}
	for _, e := range prior {
		if key != "" && e.Rec.Key != key {
			continue
		}
		if !q.seen[e.Rec.Index] {
			q.seen[e.Rec.Index] = true
			q.depth.Add(1)
		}
	}
	if q.log, err = journal.Open(path); err != nil {
		return nil, fmt.Errorf("stream: dlq: %w", err)
	}
	return q, nil
}

// ReadDLQ loads every entry of a sidecar. A missing file is empty, not
// an error; the torn-tail policy is journal.Replay's.
func ReadDLQ(path string) ([]Entry, error) {
	var out []Entry
	err := journal.Replay(path, func(e Entry) error {
		out = append(out, e)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("stream: dlq %w", err)
	}
	return out, nil
}

// Offer dead-letters rec for reason (ReasonRetryExhausted or
// ReasonMalformed; Plane classifies) unless it has been captured
// before. It reports whether an entry was written (or, in
// counting-only mode, counted). The write is fsync'd before return.
// The index is claimed under the mutex and the append runs outside it,
// so a stalled disk never blocks Close behind one fsync; a failed
// append releases the claim.
func (q *DLQ) Offer(reason string, rec campaign.TrialRecord) (bool, error) {
	q.mu.Lock()
	if q.seen[rec.Index] {
		q.mu.Unlock()
		return false, nil
	}
	q.seen[rec.Index] = true
	log := q.log
	q.mu.Unlock()
	if log != nil {
		if err := log.Append(Entry{Reason: reason, Rec: rec}, true); err != nil {
			q.mu.Lock()
			delete(q.seen, rec.Index)
			q.mu.Unlock()
			return false, fmt.Errorf("stream: dlq entry %d: %w", rec.Index, err)
		}
	}
	q.depth.Add(1)
	return true, nil
}

// Depth reports the distinct dead-lettered trials known to this queue
// (replayed plus newly captured). Safe to read concurrently.
func (q *DLQ) Depth() uint64 { return q.depth.Load() }

// Close releases the sidecar file. Entries are fsync'd per Offer, so
// Close adds no durability — it only returns the descriptor.
func (q *DLQ) Close() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.log == nil {
		return nil
	}
	err := q.log.Close()
	q.log = nil
	return err
}
