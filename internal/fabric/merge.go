package fabric

import (
	"bufio"
	"fmt"
	"os"
	"slices"

	"github.com/cmlasu/unsync/internal/campaign"
)

// merge checks the deduped record set is complete and returns the
// campaign's aggregate Result, folded as the records arrived, after
// writing the merged canonical journal when configured.
//
// Determinism proof sketch (the full argument is DESIGN.md §15): every
// record derives from (Seed, trial index, attempt) alone, so for a
// given params key there is exactly one valid record per index — the
// dedupe in ingest() keeps the first arrival and verifies later copies
// byte-identical. Each stored line is that record's
// TrialRecord.AppendJSON encoding, the bytes the single-node checkpoint
// writes: the worker's own line when it was canonical, else the
// coordinator's re-encoding. Writing the lines in index order therefore
// reproduces a single-node -workers 1 checkpoint journal byte for byte,
// and campaign.Fold, which single-node finish runs too, tallies the same
// records into the same Result in any arrival order.
func (c *Coordinator) merge() (campaign.Result, error) {
	// One pass over the done set puts the lines in index order; every
	// stored index lies inside the trial space, and no line is empty.
	lines := make([]string, c.spec.Trials)
	c.mu.Lock()
	for i, line := range c.done {
		lines[i] = line
	}
	res, err := c.fold.Result()
	c.mu.Unlock()
	if i := slices.Index(lines, ""); i >= 0 {
		return campaign.Result{}, fmt.Errorf("%w: merge missing trial %d", errFatal, i)
	}

	if c.cfg.Merged != "" {
		if werr := writeMerged(c.cfg.Merged, lines); werr != nil {
			return campaign.Result{}, werr
		}
	}
	if err != nil {
		return res, err
	}
	if jerr := c.jn.Append(journalEvent{Event: evComplete, Trials: len(lines)}, true); jerr != nil {
		return res, jerr
	}
	c.logf("complete: %d trials merged (%d leases, %d re-leases, %d splits, %d duplicate records)",
		len(lines), c.leases, c.failures, c.splits, c.duplicates)
	return res, nil
}

// writeMerged writes the canonical merged journal: the stored lines in
// index order, one per line — the byte stream a single-node -workers 1
// run journals — through a fixed buffer, then fsync'd; the coordinator
// journal, not this file, is the durable state.
func writeMerged(path string, lines []string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("fabric: create merged journal: %w", err)
	}
	w := bufio.NewWriterSize(f, 64<<10)
	for _, line := range lines {
		w.WriteString(line)
		w.WriteByte('\n')
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
