package campaign

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/cmlasu/unsync/internal/asm"
	"github.com/cmlasu/unsync/internal/fault"
	"github.com/cmlasu/unsync/internal/journal"
	"github.com/cmlasu/unsync/internal/progs"
)

// tearJournalTail truncates the journal mid-way through its final
// record, simulating a writer killed between write and flush.
func tearJournalTail(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	trimmed := bytes.TrimRight(b, "\n")
	last := bytes.LastIndexByte(trimmed, '\n') + 1
	cut := last + (len(trimmed)-last)/2
	if err := os.WriteFile(path, b[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
}

// testProgram computes a checksum over a small array — enough live
// state that most injected flips matter.
const testProgram = `
	la r10, buf
	li r1, 0        ; checksum
	li r2, 0        ; i
	li r3, 64       ; n
init:
	mul r4, r2, r2
	sw r4, 0(r10)
	addi r10, r10, 4
	addi r2, r2, 1
	blt r2, r3, init
	la r10, buf
	li r2, 0
sum:
	lw r5, 0(r10)
	add r1, r1, r5
	slli r6, r1, 1
	xor r1, r1, r6
	addi r10, r10, 4
	addi r2, r2, 1
	blt r2, r3, sum
	mv r4, r1
	li r2, 1
	syscall
	halt
.data
buf: .space 256
`

// spinProgram livelocks when the loop bound in r1 is corrupted — the
// campaign watchdog case.
const spinProgram = `
	li r1, 100
	li r2, 0
spin:
	addi r2, r2, 1
	blt r2, r1, spin
	mv r4, r2
	li r2, 1
	syscall
	halt
`

func mustProg(t *testing.T, src string) *asm.Program {
	t.Helper()
	return asm.MustAssemble(src)
}

// TestKillResumeBitMatch is the tentpole acceptance criterion: a
// campaign interrupted mid-run and resumed from its JSONL checkpoint
// produces a Result identical (reflect.DeepEqual) to the uninterrupted
// run with the same seed — even on a different worker count.
func TestKillResumeBitMatch(t *testing.T) {
	prog := mustProg(t, testProgram)
	spec := Spec{
		Scheme:   SchemeUnSync,
		Trials:   150,
		Seed:     42,
		MaxSteps: 100_000,
		Workers:  4,
	}
	full, err := Run(prog, spec)
	if err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}

	ck := filepath.Join(t.TempDir(), "ck.jsonl")
	killed := spec
	killed.Checkpoint = ck
	killed.StopAfter = 37
	partial, err := Run(prog, killed)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("interrupted run err = %v, want ErrInterrupted", err)
	}
	if partial.Ran == 0 || partial.Ran >= spec.Trials {
		t.Fatalf("interrupted run tallied %d trials, want partial coverage", partial.Ran)
	}

	resumed := spec
	resumed.Checkpoint = ck
	resumed.Resume = true
	resumed.Workers = 2 // the schedule must not matter
	got, err := Run(prog, resumed)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if !reflect.DeepEqual(full, got) {
		t.Errorf("resumed result differs from uninterrupted run:\nfull:    %+v\nresumed: %+v", full, got)
	}
}

// TestWorkerCountInvariance pins the determinism contract directly:
// identical Results for 1 and 8 workers.
func TestWorkerCountInvariance(t *testing.T) {
	prog := mustProg(t, testProgram)
	spec := Spec{Scheme: SchemeReunion, Trials: 80, Seed: 5, MaxSteps: 100_000}
	spec.Workers = 1
	one, err := Run(prog, spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Workers = 8
	eight, err := Run(prog, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(one, eight) {
		t.Errorf("results differ across worker counts:\n1: %+v\n8: %+v", one, eight)
	}
}

// TestCoverageDrivenSDC is the coverage acceptance criterion: under
// UnSync the uncovered Communication Buffer space reports nonzero SDC
// while every covered space stays SDC-free.
func TestCoverageDrivenSDC(t *testing.T) {
	prog := mustProg(t, testProgram)
	base := Spec{Scheme: SchemeUnSync, Trials: 60, Seed: 9, MaxSteps: 100_000}

	cb := base
	cb.Spaces = []fault.Space{fault.SpaceCB}
	res, err := Run(prog, cb)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tally.SDC == 0 {
		t.Errorf("uncovered CB campaign reported zero SDC (%+v)", res.Tally)
	}

	covered := base
	covered.Spaces = []fault.Space{fault.SpaceIntReg, fault.SpaceFPReg, fault.SpacePC, fault.SpaceMem}
	res, err = Run(prog, covered)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tally.SDC != 0 {
		t.Errorf("covered-space campaign reported SDC (%+v, by space %+v)", res.Tally, res.BySpace)
	}
	if res.Tally.Recovered == 0 {
		t.Errorf("covered-space campaign never recovered (%+v)", res.Tally)
	}
}

// TestCampaignWatchdog: on the livelock workload with detection
// disabled, some trials must be killed by the step budget and
// classified OutcomeHang — never looped on forever.
func TestCampaignWatchdog(t *testing.T) {
	prog := mustProg(t, spinProgram)
	none := fault.Coverage{} // nothing detected anywhere
	spec := Spec{
		Scheme:     SchemeUnSync,
		Trials:     256,
		Seed:       3,
		MaxSteps:   10_000,
		StepBudget: 1_000,
		Spaces:     []fault.Space{fault.SpaceIntReg},
		Coverage:   none,
	}
	res, err := Run(prog, spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tally.Hangs == 0 {
		t.Errorf("no trial hit the watchdog on the livelock workload (%+v)", res.Tally)
	}
	if res.Tally.Trials != spec.Trials {
		t.Errorf("tallied %d trials, want %d", res.Tally.Trials, spec.Trials)
	}
}

// TestEarlyStop: a loose CI-width threshold stops the campaign at the
// first round boundary.
func TestEarlyStop(t *testing.T) {
	prog := mustProg(t, testProgram)
	spec := Spec{
		Scheme:   SchemeUnSync,
		Trials:   500,
		Seed:     11,
		MaxSteps: 100_000,
		CIWidth:  0.9,
	}
	res, err := Run(prog, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.EarlyStop {
		t.Fatal("campaign did not stop early under a 0.9 CI-width threshold")
	}
	if res.Ran != roundSize {
		t.Errorf("early stop after %d trials, want one round (%d)", res.Ran, roundSize)
	}
	if res.SDCHi-res.SDCLo >= 0.9 {
		t.Errorf("reported CI [%g,%g] wider than the threshold", res.SDCLo, res.SDCHi)
	}
}

// TestResumeIgnoresForeignJournal: records journaled under a different
// campaign key (here, a different seed) must not satisfy a resume.
// TestResumeKeyMismatchFailsLoudly: pointing -resume at a journal
// whose records all carry a different params key must fail with
// ErrKeyMismatch and a message naming both keys — never silently
// re-run the campaign from scratch. res.Ran == 0 with a non-interrupt
// error is exactly the unsync-fault fatal() path, so the CLI exits 1.
func TestResumeKeyMismatchFailsLoudly(t *testing.T) {
	prog := mustProg(t, testProgram)
	ck := filepath.Join(t.TempDir(), "ck.jsonl")
	first := Spec{Scheme: SchemeUnSync, Trials: 30, Seed: 1, MaxSteps: 100_000, Checkpoint: ck}
	if _, err := Run(prog, first); err != nil {
		t.Fatal(err)
	}
	second := first
	second.Seed = 2
	second.Resume = true
	res, err := Run(prog, second)
	if !errors.Is(err, ErrKeyMismatch) {
		t.Fatalf("resume against a foreign journal: got %v, want ErrKeyMismatch", err)
	}
	if res.Ran != 0 {
		t.Fatalf("mismatched resume ran %d trials; it must run none (the CLI exit-1 fatal path requires Ran == 0)", res.Ran)
	}
	wantKey := second.Key(ProgHash(prog))
	foreignKey := first.Key(ProgHash(prog))
	for _, frag := range []string{wantKey, foreignKey, "-resume"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("error %q does not mention %q", err, frag)
		}
	}

	// A journal that holds records for THIS key (alongside foreign
	// ones) still resumes: the mismatch error fires only when nothing
	// in the journal can satisfy the campaign.
	if _, err := Run(prog, Spec{Scheme: SchemeUnSync, Trials: 30, Seed: 2, MaxSteps: 100_000, Checkpoint: ck}); err != nil {
		t.Fatal(err)
	}
	res2, err := Run(prog, second)
	if err != nil {
		t.Fatalf("resume with matching records present: %v", err)
	}
	want, err := Run(prog, Spec{Scheme: SchemeUnSync, Trials: 30, Seed: 2, MaxSteps: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res2, want) {
		t.Errorf("mixed-journal resume changed the result:\ngot:  %+v\nwant: %+v", res2, want)
	}
}

// TestJournalToleratesTornTail: a partial trailing line (a killed
// writer) is skipped, not fatal, and the campaign re-runs that trial.
func TestJournalToleratesTornTail(t *testing.T) {
	prog := mustProg(t, testProgram)
	ck := filepath.Join(t.TempDir(), "ck.jsonl")
	spec := Spec{Scheme: SchemeUnSync, Trials: 20, Seed: 6, MaxSteps: 100_000, Checkpoint: ck}
	want, err := Run(prog, spec)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the journal: truncate the last line mid-record.
	tearJournalTail(t, ck)
	spec.Resume = true
	got, err := Run(prog, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("torn-tail resume changed the result:\ngot:  %+v\nwant: %+v", got, want)
	}
	// The re-run trial must not be glued onto the torn fragment: the
	// checkpoint replays cleanly with exactly one record per trial.
	n := 0
	if err := journal.Replay(ck, func(TrialRecord) error { n++; return nil }); err != nil {
		t.Fatalf("checkpoint after torn-tail resume: %v", err)
	}
	if n != spec.Trials {
		t.Fatalf("checkpoint after torn-tail resume holds %d records, want %d", n, spec.Trials)
	}
}

// TestRunRejectsBadSpec covers the validation surface.
func TestRunRejectsBadSpec(t *testing.T) {
	prog := mustProg(t, testProgram)
	if _, err := Run(prog, Spec{Scheme: "tmr"}); err == nil {
		t.Error("unknown scheme accepted")
	}
	if _, err := Run(prog, Spec{Spaces: []fault.Space{fault.NumSpaces}}); err == nil {
		t.Error("invalid space accepted")
	}
	// A negative trial count used to pass validation and panic in
	// RunContext's record allocation.
	if err := (Spec{Trials: -1}).Validate(); err == nil {
		t.Error("negative trial count accepted")
	}
	if _, err := Run(prog, Spec{Trials: -1}); err == nil {
		t.Error("Run accepted a negative trial count")
	}
}

// TestNegativeFIRejected: a negative fingerprint interval used to pass
// validation (defaults fill only zero) and run as FI 10 under a journal
// key recording the negative value. Both entry points must reject it.
func TestNegativeFIRejected(t *testing.T) {
	prog := mustProg(t, testProgram)
	spec := Spec{Scheme: SchemeReunion, Trials: 4, FI: -5}
	if _, err := Run(prog, spec); err == nil || !strings.Contains(err.Error(), "fingerprint interval -5") {
		t.Errorf("Run: err = %v, want a fingerprint interval error", err)
	}
	emitted := 0
	err := RunShard(context.Background(), prog, spec, 0, 4, nil, func(recs []TrialRecord) error { emitted += len(recs); return nil })
	if err == nil || !strings.Contains(err.Error(), "fingerprint interval -5") {
		t.Errorf("RunShard: err = %v, want a fingerprint interval error", err)
	}
	if emitted != 0 {
		t.Errorf("RunShard emitted %d records for an invalid spec", emitted)
	}
}

// TestDeriveSiteAlwaysValid: every derived flip must pass validation
// for any index and attempt.
func TestDeriveSiteAlwaysValid(t *testing.T) {
	prog := mustProg(t, testProgram)
	spec := Spec{}.withDefaults()
	for idx := 0; idx < 500; idx++ {
		for attempt := 0; attempt < 2; attempt++ {
			step, f := deriveSite(spec, 1000, prog, idx, attempt)
			if err := f.Validate(); err != nil {
				t.Fatalf("idx %d attempt %d: invalid site %+v: %v", idx, attempt, f, err)
			}
			if step >= 1000 {
				t.Fatalf("idx %d: step %d out of range", idx, step)
			}
		}
	}
}

// TestProgHashDistinguishes: different programs, different hashes; the
// same program, the same hash.
func TestProgHashDistinguishes(t *testing.T) {
	a := mustProg(t, testProgram)
	b := mustProg(t, spinProgram)
	if ProgHash(a) == ProgHash(b) {
		t.Error("distinct programs share a hash")
	}
	if ProgHash(a) != ProgHash(mustProg(t, testProgram)) {
		t.Error("identical programs hash differently")
	}
}

// TestRunContextCancelResumesBitIdentical is the cancellation twin of
// TestKillResumeBitMatch: instead of StopAfter simulating a kill, a
// real context cancellation lands mid-campaign. The run must return
// ErrInterrupted joined with the cancellation cause plus a partial
// Result, and a resumed run must reproduce the uninterrupted Result
// bit-identically.
func TestRunContextCancelResumesBitIdentical(t *testing.T) {
	prog := mustProg(t, testProgram)
	spec := Spec{
		Scheme:   SchemeUnSync,
		Trials:   2000,
		Seed:     11,
		MaxSteps: 100_000,
		Workers:  4,
	}
	full, err := Run(prog, spec)
	if err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}

	ck := filepath.Join(t.TempDir(), "ck.jsonl")
	interrupted := spec
	interrupted.Checkpoint = ck
	cause := errors.New("operator shutdown")
	ctx, cancel := context.WithCancelCause(context.Background())
	// Cancel once the campaign is mid-run: 100 trials classified, far
	// more still to go. The chunk holding the 100th record is still
	// journaled, so some trials are durable.
	var seen atomic.Int32
	interrupted.Observer = func(TrialRecord) {
		if seen.Add(1) == 100 {
			cancel(cause)
		}
	}
	partial, err := RunContext(ctx, prog, interrupted)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("cancelled run err = %v, want ErrInterrupted", err)
	}
	if !errors.Is(err, cause) {
		t.Fatalf("cancelled run err = %v, want the cancellation cause joined in", err)
	}
	if partial.Ran == 0 || partial.Ran >= spec.Trials {
		t.Fatalf("cancelled run tallied %d trials, want partial coverage", partial.Ran)
	}

	resumed := spec
	resumed.Checkpoint = ck
	resumed.Resume = true
	resumed.Workers = 2 // the schedule must not matter
	got, err := Run(prog, resumed)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if !reflect.DeepEqual(full, got) {
		t.Errorf("resumed result differs from uninterrupted run:\nfull:    %+v\nresumed: %+v", full, got)
	}

	t.Run("kill inside the last chunk write", func(t *testing.T) {
		resumeFromEveryCutOfLastChunk(t, prog)
	})
}

// resumeFromEveryCutOfLastChunk pins the chunk-granular journal
// contract: each worker chunk is one write, so a kill can land at any
// byte of it. The journal of a finished single-worker run is cut at
// every offset of its last chunk's write, and each resume must
// reproduce the uninterrupted Result and journal. With one worker the
// journal is in index order, so the journal check is byte-for-byte.
func resumeFromEveryCutOfLastChunk(t *testing.T, prog *asm.Program) {
	spec := Spec{Scheme: SchemeUnSync, Trials: 40, Seed: 11, MaxSteps: 100_000, Workers: 1, Batch: 8}
	dir := t.TempDir()
	ref := spec
	ref.Checkpoint = filepath.Join(dir, "ref.jsonl")
	want, err := Run(prog, ref)
	if err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}
	full, err := os.ReadFile(ref.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(full, []byte{'\n'})
	start := len(full) - len(bytes.Join(lines[spec.Trials-spec.Batch:], nil))

	resumed := spec
	resumed.Checkpoint = filepath.Join(dir, "ck.jsonl")
	resumed.Resume = true
	for cut := start; cut <= len(full); cut++ {
		if err := os.WriteFile(resumed.Checkpoint, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := Run(prog, resumed)
		if err != nil {
			t.Fatalf("cut at byte %d: resumed run: %v", cut, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("cut at byte %d: resumed result differs:\nfull:    %+v\nresumed: %+v", cut, want, got)
		}
		journal, err := os.ReadFile(resumed.Checkpoint)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(journal, full) {
			t.Fatalf("cut at byte %d: resumed journal differs from the uninterrupted one\n%s\n----\n%s", cut, journal[start-300:], full[start-300:])
		}
	}
}

// TestRunContextPreCancelled: a context cancelled before the campaign
// starts yields ErrInterrupted with zero trials tallied.
func TestRunContextPreCancelled(t *testing.T) {
	prog := mustProg(t, testProgram)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunContext(ctx, prog, Spec{Scheme: SchemeUnSync, Trials: 50, Seed: 1, MaxSteps: 100_000})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("pre-cancelled run err = %v, want ErrInterrupted", err)
	}
	if res.Ran != 0 {
		t.Errorf("pre-cancelled run tallied %d trials, want 0", res.Ran)
	}
}

// TestSpecKeyGolden pins the journal key bytes: every checkpoint,
// coordinator journal and benchmark reference digest was written under
// these keys, so a change to what Key hashes must show here first.
func TestSpecKeyGolden(t *testing.T) {
	for _, tc := range []struct {
		spec Spec
		want string
	}{
		{Spec{Trials: 10}, "bf3783fc0ac47206"},
		{Spec{Scheme: SchemeReunion, Seed: 7, FI: 5}, "b12600ec52dcb6a0"},
	} {
		if got := tc.spec.Key("0123456789abcdef"); got != tc.want {
			t.Errorf("%+v: key %s, want %s", tc.spec, got, tc.want)
		}
	}
}

// TestBatchBitIdentity is the batched-engine acceptance criterion:
// with the same seed, a campaign run through the lane engine (Batch:N)
// produces the same journal bytes and the same final Result — Events
// included — as the scalar path (Batch:1). Workers is pinned to 1 so
// the journal write order is deterministic on both sides.
func TestBatchBitIdentity(t *testing.T) {
	prog := mustProg(t, testProgram)
	for _, scheme := range []string{SchemeUnSync, SchemeReunion} {
		base := Spec{
			Scheme:   scheme,
			Trials:   90,
			Seed:     11,
			MaxSteps: 100_000,
			Workers:  1,
		}

		dir := t.TempDir()
		scalar := base
		scalar.Batch = 1
		scalar.Checkpoint = filepath.Join(dir, "scalar.jsonl")
		sres, err := Run(prog, scalar)
		if err != nil {
			t.Fatalf("%s scalar: %v", scheme, err)
		}

		stats := &BatchStats{}
		batched := base
		batched.Batch = 7 // deliberately not a divisor of roundSize
		batched.Checkpoint = filepath.Join(dir, "batched.jsonl")
		batched.Stats = stats
		bres, err := Run(prog, batched)
		if err != nil {
			t.Fatalf("%s batched: %v", scheme, err)
		}

		if !reflect.DeepEqual(sres, bres) {
			t.Errorf("%s: batched Result differs from scalar:\nscalar:  %+v\nbatched: %+v", scheme, sres, bres)
		}
		sb, err := os.ReadFile(scalar.Checkpoint)
		if err != nil {
			t.Fatal(err)
		}
		bb, err := os.ReadFile(batched.Checkpoint)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sb, bb) {
			t.Errorf("%s: journal bytes differ between batch widths", scheme)
		}
		if stats.Lanes() == 0 {
			t.Errorf("%s: BatchStats recorded no lanes", scheme)
		}
		if stats.Shortcut()+stats.Lockstep()+stats.Retired() != stats.Lanes() {
			t.Errorf("%s: BatchStats do not sum: %d+%d+%d != %d",
				scheme, stats.Shortcut(), stats.Lockstep(), stats.Retired(), stats.Lanes())
		}
	}
}

// libraryProg assembles a program of the workload library.
func libraryProg(t *testing.T, name string) *asm.Program {
	t.Helper()
	p, ok := progs.ByName(name)
	if !ok {
		t.Fatalf("no %q program", name)
	}
	prog, err := p.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestPassBitIdentity is TestBatchBitIdentity at pass scale: with 4,096
// trials on one worker, the default width packs 16 chunks into each
// kernel call, and the Result and journal bytes must still equal the
// scalar path's. bubblesort retires lanes to the scalar finishing
// loop, so the packed pass covers that path as well as checksum's
// mostly static classification.
func TestPassBitIdentity(t *testing.T) {
	for _, name := range []string{"checksum", "bubblesort"} {
		prog := libraryProg(t, name)
		for _, scheme := range []string{SchemeUnSync, SchemeReunion} {
			dir := t.TempDir()
			base := Spec{Scheme: scheme, Trials: 4096, Seed: 5, MaxSteps: 20_000, Workers: 1}
			if n := passChunks(base.Trials, base.Workers, base.withDefaults()); n < 2 {
				t.Fatalf("%d trials form passes of %d chunk(s); the test needs packed passes", base.Trials, n)
			}

			scalar := base
			scalar.Batch = 1
			scalar.Checkpoint = filepath.Join(dir, "scalar.jsonl")
			sres, err := Run(prog, scalar)
			if err != nil {
				t.Fatalf("%s/%s scalar: %v", name, scheme, err)
			}
			packed := base
			packed.Checkpoint = filepath.Join(dir, "packed.jsonl")
			pres, err := Run(prog, packed)
			if err != nil {
				t.Fatalf("%s/%s packed: %v", name, scheme, err)
			}

			if !reflect.DeepEqual(sres, pres) {
				t.Errorf("%s/%s: packed Result differs from scalar:\nscalar: %+v\npacked: %+v", name, scheme, sres, pres)
			}
			sb, err := os.ReadFile(scalar.Checkpoint)
			if err != nil {
				t.Fatal(err)
			}
			pb, err := os.ReadFile(packed.Checkpoint)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(sb, pb) {
				t.Errorf("%s/%s: packed journal bytes differ from scalar", name, scheme)
			}
		}
	}
}

// TestPassSharesCursor pins what packing buys: across a 32,768-trial
// UnSync checksum campaign on one worker, the golden cursor replays
// fewer than a quarter as many instructions as the faulted lanes run.
// With one kernel call per 32-trial chunk it replayed more than the
// lanes did.
func TestPassSharesCursor(t *testing.T) {
	prog := libraryProg(t, "checksum")
	stats := &BatchStats{}
	spec := Spec{Scheme: SchemeUnSync, Trials: 32768, Seed: 1, MaxSteps: 20_000, Workers: 1, Stats: stats}
	if _, err := Run(prog, spec); err != nil {
		t.Fatal(err)
	}
	cursor, lane := stats.CursorSteps(), stats.LaneSteps()
	if lane == 0 {
		t.Fatal("no lane steps counted")
	}
	t.Logf("cursor %d steps, lanes %d steps", cursor, lane)
	if 4*cursor >= lane {
		t.Errorf("cursor replayed %d steps against %d lane steps (%.0f %%), want below 25 %%",
			cursor, lane, 100*float64(cursor)/float64(lane))
	}
}

// TestPassSinkErrorCountsOnlyDelivered fails every checkpoint write of
// a packed campaign. A pass stops journaling at its first chunk, whose
// records the Observer has already seen; the chunks after it reach
// neither the journal nor the Observer, so the partial Result must not
// count them either.
func TestPassSinkErrorCountsOnlyDelivered(t *testing.T) {
	const full = "/dev/full" // every write fails with ENOSPC
	if f, err := os.OpenFile(full, os.O_WRONLY, 0); err != nil {
		t.Skipf("no %s: %v", full, err)
	} else {
		f.Close()
	}
	prog := libraryProg(t, "checksum")
	observed := make(map[int]int)
	spec := Spec{
		Scheme: SchemeUnSync, Trials: 4096, Seed: 3, MaxSteps: 20_000, Workers: 1,
		Checkpoint: full,
		Observer:   func(r TrialRecord) { observed[r.Index]++ },
	}
	chunks := passChunks(spec.Trials, spec.Workers, spec.withDefaults())
	if chunks < 2 {
		t.Fatalf("%d trials form passes of %d chunk(s); the test needs packed passes", spec.Trials, chunks)
	}
	res, err := Run(prog, spec)
	if err == nil || !strings.Contains(err.Error(), "checkpoint chunk") {
		t.Fatalf("Run over a failing checkpoint returned %v, want the chunk write error", err)
	}
	for i, n := range observed {
		if n != 1 {
			t.Fatalf("trial %d observed %d times", i, n)
		}
	}
	// One chunk per pass reached the Observer before its write failed.
	if want := spec.Trials / chunks; len(observed) != want {
		t.Errorf("observer saw %d trials, want %d (the first chunk of each pass)", len(observed), want)
	}
	if res.Ran != len(observed) || res.Tally.Trials+res.Failed != len(observed) {
		t.Errorf("partial Result counts Ran %d, %d tallied + %d failed; the observer saw %d trials",
			res.Ran, res.Tally.Trials, res.Failed, len(observed))
	}
}

// TestBatchResumeBitMatch re-runs the kill+resume criterion through
// the batched engine: an interrupted batched campaign resumed on a
// different batch width still reproduces the uninterrupted Result.
func TestBatchResumeBitMatch(t *testing.T) {
	prog := mustProg(t, testProgram)
	spec := Spec{
		Scheme:   SchemeUnSync,
		Trials:   150,
		Seed:     42,
		MaxSteps: 100_000,
		Workers:  4,
	}
	full, err := Run(prog, spec)
	if err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}

	ck := filepath.Join(t.TempDir(), "ck.jsonl")
	killed := spec
	killed.Checkpoint = ck
	killed.StopAfter = 37
	killed.Batch = 9
	if _, err := Run(prog, killed); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("interrupted run err = %v, want ErrInterrupted", err)
	}

	resumed := spec
	resumed.Checkpoint = ck
	resumed.Resume = true
	resumed.Batch = 3 // resume on a different width
	resumed.Workers = 2
	got, err := Run(prog, resumed)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if !reflect.DeepEqual(full, got) {
		t.Errorf("resumed batched result differs:\nfull:    %+v\nresumed: %+v", full, got)
	}
}

// TestSpecKeyExcludesBatch: batch width is pure scheduling — outcomes
// are bit-identical across widths — so it must not partition journals.
func TestSpecKeyExcludesBatch(t *testing.T) {
	a := Spec{Scheme: SchemeUnSync, Trials: 10, Seed: 1, MaxSteps: 1000}
	b := a
	b.Batch = 17
	if a.Key("prog") != b.Key("prog") {
		t.Error("specs differing only in Batch do not share a journal key")
	}
}
