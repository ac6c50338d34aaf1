package campaign

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/cmlasu/unsync/internal/asm"
	"github.com/cmlasu/unsync/internal/emu"
	"github.com/cmlasu/unsync/internal/fault"
)

// collector is a concurrency-safe Spec.Observer that records every
// delivery.
type collector struct {
	mu   sync.Mutex
	recs []TrialRecord
}

func (c *collector) observe(r TrialRecord) {
	c.mu.Lock()
	c.recs = append(c.recs, r)
	c.mu.Unlock()
}

func (c *collector) byIndex() map[int]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	counts := make(map[int]int)
	for _, r := range c.recs {
		counts[r.Index]++
	}
	return counts
}

// The observer sees every classified trial exactly once per
// invocation, and wiring it changes neither the Result nor what runs.
func TestObserverSeesEveryTrialOnce(t *testing.T) {
	prog := mustProg(t, testProgram)
	spec := Spec{
		Scheme:   SchemeUnSync,
		Trials:   60,
		Seed:     7,
		MaxSteps: 20_000,
		Workers:  4,
	}
	want, err := Run(prog, spec)
	if err != nil {
		t.Fatalf("plain run: %v", err)
	}

	var c collector
	spec.Observer = c.observe
	got, err := Run(prog, spec)
	if err != nil {
		t.Fatalf("observed run: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("observer changed the Result:\nplain:    %+v\nobserved: %+v", want, got)
	}
	counts := c.byIndex()
	if len(counts) != got.Ran {
		t.Fatalf("observer saw %d distinct trials, campaign ran %d", len(counts), got.Ran)
	}
	for i := 0; i < got.Ran; i++ {
		if counts[i] != 1 {
			t.Fatalf("trial %d delivered %d times, want exactly once", i, counts[i])
		}
	}
}

// A resumed campaign replays journaled records through the observer
// (in index order) before running the remainder, so a streaming plane
// attached after a restart still sees the whole campaign.
func TestObserverReplaysResumedRecords(t *testing.T) {
	prog := mustProg(t, testProgram)
	ck := filepath.Join(t.TempDir(), "ck.jsonl")
	spec := Spec{
		Scheme:     SchemeUnSync,
		Trials:     60,
		Seed:       7,
		MaxSteps:   20_000,
		Workers:    2,
		Checkpoint: ck,
	}
	killed := spec
	killed.StopAfter = 25
	if _, err := Run(prog, killed); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("StopAfter run: %v, want ErrInterrupted", err)
	}

	var c collector
	resumed := spec
	resumed.Resume = true
	resumed.Observer = c.observe
	res, err := Run(prog, resumed)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	counts := c.byIndex()
	if len(counts) != res.Ran {
		t.Fatalf("observer saw %d distinct trials over the resumed run, campaign ran %d", len(counts), res.Ran)
	}
	for i, n := range counts {
		if n != 1 {
			t.Fatalf("trial %d delivered %d times on resume, want exactly once", i, n)
		}
	}
}

// When every retry-with-reseed attempt fails, the record must carry
// the complete per-attempt error chain — each attempt's reseeded site
// and cause — and the campaign error must surface it. This pins the
// bugfix: before, only the terminal attempt's error survived.
func TestRetryExhaustedPreservesAttemptChain(t *testing.T) {
	prog := mustProg(t, testProgram)
	orig := executeTrial
	defer func() { executeTrial = orig }()
	executeTrial = func(ctx context.Context, prog *asm.Program, g *emu.Machine, spec Spec, step uint64, f fault.Flip) (fault.Outcome, bool, error) {
		return 0, false, fmt.Errorf("injected harness fault at step %d", step)
	}

	var c collector
	spec := Spec{
		Scheme:   SchemeUnSync,
		Trials:   3,
		Seed:     7,
		MaxSteps: 20_000,
		Workers:  1,
		Batch:    1, // scalar path: the retry loop under test
		Observer: c.observe,
	}
	res, err := Run(prog, spec)
	if err == nil {
		t.Fatal("campaign with a always-failing executor returned no error")
	}
	if res.Failed != 3 {
		t.Fatalf("Failed=%d, want all 3 trials", res.Failed)
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.recs) != 3 {
		t.Fatalf("observer saw %d records, want 3", len(c.recs))
	}
	for _, r := range c.recs {
		if r.Err == "" {
			t.Fatalf("trial %d lost its terminal error", r.Index)
		}
		if r.Attempts != attempts {
			t.Fatalf("trial %d ran %d attempts, want %d", r.Index, r.Attempts, attempts)
		}
		if len(r.AttemptErrs) != attempts {
			t.Fatalf("trial %d chain holds %d attempts, want %d: %v", r.Index, len(r.AttemptErrs), attempts, r.AttemptErrs)
		}
		for i, line := range r.AttemptErrs {
			if !strings.Contains(line, fmt.Sprintf("attempt %d ", i+1)) {
				t.Fatalf("chain entry %d misnumbered: %q", i, line)
			}
			if !strings.Contains(line, "space=") || !strings.Contains(line, "injected harness fault") {
				t.Fatalf("chain entry lost the reseeded site or cause: %q", line)
			}
		}
		// Reseeding must actually vary the site across attempts — the
		// chain is only diagnostic if each line names a different draw.
		if r.AttemptErrs[0] == r.AttemptErrs[1] {
			t.Fatalf("trial %d: the retry drew the identical site: %v", r.Index, r.AttemptErrs)
		}
	}

	// The joined campaign error carries the chain, not just the tail.
	if msg := err.Error(); !strings.Contains(msg, "attempt 1 ") || !strings.Contains(msg, "; attempt 2 ") {
		t.Fatalf("campaign error dropped the attempt chain: %s", msg)
	}
}

// The attempt chain survives the journal round trip, so a resumed
// campaign (and the DLQ replaying a sidecar) still has every cause.
func TestAttemptChainSurvivesJournal(t *testing.T) {
	prog := mustProg(t, testProgram)
	orig := executeTrial
	defer func() { executeTrial = orig }()
	executeTrial = func(ctx context.Context, prog *asm.Program, g *emu.Machine, spec Spec, step uint64, f fault.Flip) (fault.Outcome, bool, error) {
		return 0, false, errors.New("injected harness fault")
	}

	ck := filepath.Join(t.TempDir(), "ck.jsonl")
	spec := Spec{
		Scheme:     SchemeUnSync,
		Trials:     2,
		Seed:       7,
		MaxSteps:   20_000,
		Workers:    1,
		Batch:      1,
		Checkpoint: ck,
	}
	if _, err := Run(prog, spec); err == nil {
		t.Fatal("failing campaign returned no error")
	}

	key := spec.Key(ProgHash(prog))
	loaded, n, _, err := loadJournal(ck, key, ProgHash(prog), spec.Trials)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("journal recovered %d records, want 2", n)
	}
	for i, r := range loaded {
		if r.Key == "" {
			t.Fatalf("journal lost trial %d", i)
		}
		if len(r.AttemptErrs) != attempts {
			t.Fatalf("journaled trial %d chain: %v, want %d attempts", i, r.AttemptErrs, attempts)
		}
	}
}

// TestCampaignUsesEveryWorker pins that a campaign without early
// stopping runs its chunks on the whole worker pool. At the default
// lane width a 64-trial round is two chunks, so a campaign cut into
// rounds never has more than two chunks in flight. The observer holds
// each call until three calls are in flight at once, or until a shared
// deadline passes; the campaign must reach three.
func TestCampaignUsesEveryWorker(t *testing.T) {
	prog := mustProg(t, testProgram)
	var inFlight, peak atomic.Int32
	deadline := time.Now().Add(10 * time.Second)
	spec := Spec{Scheme: SchemeUnSync, Trials: 256, Seed: 3, MaxSteps: 20_000, Workers: 4,
		Observer: func(TrialRecord) {
			n := inFlight.Add(1)
			defer inFlight.Add(-1)
			for {
				if p := peak.Load(); n > p && !peak.CompareAndSwap(p, n) {
					continue
				}
				if peak.Load() >= 3 || time.Now().After(deadline) {
					return
				}
				time.Sleep(time.Millisecond)
				n = inFlight.Load()
			}
		}}
	if _, err := Run(prog, spec); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p < 3 {
		t.Fatalf("at most %d observer calls in flight with 4 workers, want 3", p)
	}
}

// A Fold over a campaign's records in any arrival order gives the
// Result and the joined error a single-node run reports: the tallies
// are counts, and failed trials' errors are joined in index order.
func TestFoldMatchesRunInAnyOrder(t *testing.T) {
	prog := mustProg(t, testProgram)
	orig := executeTrial
	defer func() { executeTrial = orig }()
	executeTrial = func(ctx context.Context, prog *asm.Program, g *emu.Machine, spec Spec, step uint64, f fault.Flip) (fault.Outcome, bool, error) {
		if step%3 == 0 {
			return 0, false, fmt.Errorf("injected harness fault at step %d", step)
		}
		return orig(ctx, prog, g, spec, step, f)
	}
	var c collector
	spec := Spec{Scheme: SchemeUnSync, Trials: 60, Seed: 7, MaxSteps: 20_000, Workers: 1, Batch: 1, Observer: c.observe}
	want, wantErr := Run(prog, spec)
	recs := c.recs // one worker delivers in index order
	if want.Failed == 0 || want.Failed == want.Ran {
		t.Fatalf("want a mix of failed and classified trials, got %d of %d failed", want.Failed, want.Ran)
	}
	fold := NewFold(spec, ProgHash(prog))
	for i := len(recs) - 1; i >= 0; i-- {
		fold.Add(&recs[i])
	}
	got, err := fold.Result()
	if !reflect.DeepEqual(got, want) || fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("reverse-order fold: %+v\n%v\nrun: %+v\n%v", got, err, want, wantErr)
	}
}

// An Observer that panics part-way through the second chunk of a pass
// aborts the campaign, but the first chunk was observed, folded and
// journaled before it: the partial Result counts exactly the records
// the journal holds.
func TestObserverPanicCountsJournaledChunks(t *testing.T) {
	prog := libraryProg(t, "checksum")
	ck := filepath.Join(t.TempDir(), "ck.jsonl")
	spec := Spec{Scheme: SchemeUnSync, Trials: 4096, Seed: 3, MaxSteps: 20_000, Workers: 1, Checkpoint: ck,
		Observer: func(r TrialRecord) {
			if r.Index == 40 {
				panic("observer fault")
			}
		}}
	if chunks := passChunks(spec.Trials, spec.Workers, spec.withDefaults()); chunks < 2 {
		t.Fatalf("%d trials form passes of %d chunk(s); the test needs packed passes", spec.Trials, chunks)
	}
	res, err := Run(prog, spec)
	if err == nil || !strings.Contains(err.Error(), "observer fault") {
		t.Fatalf("Run with a panicking observer returned %v, want the recovered panic", err)
	}
	b, err := os.ReadFile(ck)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Count(b, []byte("\n"))
	if lines != DefaultBatch {
		t.Errorf("journal holds %d lines, want the first chunk (%d)", lines, DefaultBatch)
	}
	if res.Ran != lines || res.Tally.Trials+res.Failed != lines {
		t.Errorf("partial Result counts Ran %d, %d tallied + %d failed; the journal holds %d records",
			res.Ran, res.Tally.Trials, res.Failed, lines)
	}
}
