package campaign

import (
	"fmt"

	"github.com/cmlasu/unsync/internal/journal"
)

// TrialRecord is one journaled trial outcome. It is both the JSONL
// checkpoint line and the unit the aggregator consumes: everything a
// resumed campaign needs to reproduce the trial's contribution to the
// final Result without re-running it.
type TrialRecord struct {
	// Key identifies the campaign this record belongs to (Spec.key):
	// a hash over program, scheme, seed and every parameter that
	// changes what an individual trial computes. Records with a
	// different key in the same journal file are ignored on resume.
	Key  string `json:"key"`
	Prog string `json:"prog"`
	Seed uint64 `json:"seed"`
	// Index is the trial's position in the campaign's deterministic
	// trial sequence; (Key, Index) uniquely identifies a trial.
	Index int `json:"i"`

	// Fault site, as derived by deriveSite for this index.
	Space string `json:"space"`
	Reg   uint8  `json:"reg,omitempty"`
	Bit   uint8  `json:"bit"`
	Addr  uint64 `json:"addr,omitempty"`
	Step  uint64 `json:"step"`

	// Detected records the coverage-map resolution for the site.
	Detected bool `json:"detected"`
	// Attempts counts harness executions (1 = no retry needed).
	Attempts int `json:"attempts"`
	// Outcome is the fault.Outcome string, empty if the trial failed.
	Outcome string `json:"outcome,omitempty"`
	// Err carries the final harness error after retries, if any.
	Err string `json:"err,omitempty"`
	// AttemptErrs is the full per-attempt error chain behind Err, one
	// entry per failed retry-with-reseed attempt (its reseeded site and
	// cause). Journaled so a resumed run — and the dead-letter queue —
	// keeps every attempt's failure, not just the terminal one.
	AttemptErrs []string `json:"attempt_errs,omitempty"`
}

// Equal reports whether two records are identical field-for-field —
// the bit-identity check behind the fabric's duplicate-arrival
// verification. TrialRecord stopped
// being ==-comparable when AttemptErrs made it carry a slice; this is
// the comparison call sites use instead.
func (r TrialRecord) Equal(o TrialRecord) bool {
	if len(r.AttemptErrs) != len(o.AttemptErrs) {
		return false
	}
	for i := range r.AttemptErrs {
		if r.AttemptErrs[i] != o.AttemptErrs[i] {
			return false
		}
	}
	return r.Key == o.Key && r.Prog == o.Prog && r.Seed == o.Seed && r.Index == o.Index &&
		r.Space == o.Space && r.Reg == o.Reg && r.Bit == o.Bit && r.Addr == o.Addr &&
		r.Step == o.Step && r.Detected == o.Detected && r.Attempts == o.Attempts &&
		r.Outcome == o.Outcome && r.Err == o.Err
}

// loadJournal reads a JSONL checkpoint and returns the records whose
// Key matches key, indexed by trial index: recs[i] is the last such
// record for trial i, or the zero record (empty Key) when the journal
// holds none, and n counts the indices present. Indices outside
// [0, trials) are ignored, and recs grows only as far as the highest
// index found. Matching records share key and prog (the campaign's
// program hash) instead of copying them. foreign counts the records
// carrying each other key seen in the file: a checkpoint may be shared
// by several specs, whose lines are well-formed and simply skipped. A
// missing file is not an error (nothing to resume). The torn-tail
// policy is journal.Replay's.
func loadJournal(path, key, prog string, trials int) (recs []TrialRecord, n int, foreign map[string]int, err error) {
	foreign = make(map[string]int)
	err = journal.ReplayDecode(path, func(raw []byte, rec *TrialRecord) error {
		_, err := rec.DecodeKeyed(raw, key, prog)
		return err
	}, func(rec TrialRecord) error {
		switch {
		case rec.Key == key:
			i := rec.Index
			if i < 0 || i >= trials {
				return nil
			}
			if i >= len(recs) {
				if i >= cap(recs) {
					// Double, not append's gentler growth: a resume of
					// 16k records would otherwise copy 5× their size.
					grown := make([]TrialRecord, len(recs), min(max(2*cap(recs), i+1, 1024), trials))
					copy(grown, recs)
					recs = grown
				}
				recs = recs[:i+1]
			}
			if recs[i].Key == "" {
				n++
			}
			recs[i] = rec
		case rec.Key != "":
			foreign[rec.Key]++
		}
		return nil
	})
	if err != nil {
		return nil, 0, nil, fmt.Errorf("campaign: checkpoint %w", err)
	}
	return recs, n, foreign, nil
}
