package fabric

import (
	"bufio"
	"fmt"
	"os"

	"github.com/cmlasu/unsync/internal/campaign"
)

// merge turns the deduped record set into the campaign's aggregate
// Result and, when configured, the merged canonical journal.
//
// Determinism proof sketch (the full argument is DESIGN.md §15): every
// record derives from (Seed, trial index, attempt) alone, so for a
// given params key there is exactly one valid record per index — the
// dedupe in ingest() keeps the first arrival and verifies later copies
// byte-identical. Writing them in index order, each re-encoded with the
// same TrialRecord.AppendJSON the single-node checkpoint uses,
// therefore reproduces a single-node -workers 1 checkpoint journal
// byte for byte, and campaign.AggregateRecords folds the same records
// through the same index-ordered aggregation as a single-node finish.
func (c *Coordinator) merge() (campaign.Result, error) {
	recs := make([]*campaign.TrialRecord, c.spec.Trials)
	c.mu.Lock()
	for i := range recs {
		rec, ok := c.done[i]
		if !ok {
			c.mu.Unlock()
			return campaign.Result{}, fmt.Errorf("%w: merge missing trial %d", errFatal, i)
		}
		recs[i] = rec
	}
	c.mu.Unlock()

	if c.cfg.Merged != "" {
		if err := writeMerged(c.cfg.Merged, recs); err != nil {
			return campaign.Result{}, err
		}
	}
	res, err := campaign.AggregateRecords(c.spec, c.progHash, recs)
	if err != nil {
		return res, err
	}
	if jerr := c.jn.Append(journalEvent{Event: evComplete, Trials: len(recs)}, true); jerr != nil {
		return res, jerr
	}
	c.logf("complete: %d trials merged (%d leases, %d re-leases, %d splits, %d duplicate records)",
		len(recs), c.leases, c.failures, c.splits, c.duplicates)
	return res, nil
}

// writeMerged writes the canonical merged journal: one
// TrialRecord.AppendJSON line per record in trial-index order — the
// byte stream a single-node -workers 1 run journals — through a fixed
// buffer, then fsync'd; the coordinator journal, not this file, is the
// durable state.
func writeMerged(path string, recs []*campaign.TrialRecord) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("fabric: create merged journal: %w", err)
	}
	w := bufio.NewWriterSize(f, 64<<10)
	for _, rec := range recs {
		// AvailableBuffer lends w's free space: a line that fits is
		// appended in place, and Write then copies nothing.
		w.Write(append(rec.AppendJSON(w.AvailableBuffer()), '\n'))
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("fabric: write merged journal: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("fabric: sync merged journal: %w", err)
	}
	return f.Close()
}
