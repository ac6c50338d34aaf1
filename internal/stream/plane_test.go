package stream

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/cmlasu/unsync/internal/asm"
	"github.com/cmlasu/unsync/internal/campaign"
	"github.com/cmlasu/unsync/internal/stats"
)

// checksumProgram mirrors the campaign test workload: enough live
// state that injected flips produce a mix of outcomes.
const checksumProgram = `
	la r10, buf
	li r1, 0
	li r2, 0
	li r3, 64
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

// rec builds a minimal classified trial record for plane tests.
func rec(idx int, outcome string) campaign.TrialRecord {
	return campaign.TrialRecord{
		Key:      "k",
		Prog:     "p",
		Seed:     1,
		Index:    idx,
		Space:    "int-reg",
		Attempts: 1,
		Outcome:  outcome,
	}
}

// failedRec builds a retry-exhausted record carrying its attempt chain.
func failedRec(idx int) campaign.TrialRecord {
	r := rec(idx, "")
	r.Attempts = 2
	r.Err = "boom (final)"
	r.AttemptErrs = []string{
		"attempt 1 (space=int-reg reg=3 bit=7 addr=0x0 step=11): boom",
		"attempt 2 (space=mem reg=0 bit=12 addr=0x4010 step=90): boom (final)",
	}
	return r
}

// The acceptance pin for the whole streaming plane: a campaign run
// with the plane observing must produce a bit-identical Result and the
// same checkpoint journal as the same campaign with the plane off —
// the plane reads the stream, it never touches it. The plane's own
// final statistics must simultaneously agree with the campaign's: same
// counts, same Wilson interval.
//
// With one worker the journal bytes must be identical. With several,
// workers append finished batches in completion order (Spec.Observer),
// so two runs' journals hold the same lines in different orders; they
// are compared in the index-sorted form a single worker writes.
func TestPlaneBitIdentityWithCampaign(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			testPlaneBitIdentity(t, workers)
		})
	}
}

func testPlaneBitIdentity(t *testing.T, workers int) {
	prog := asm.MustAssemble(checksumProgram)
	dir := t.TempDir()
	spec := campaign.Spec{
		Scheme:   campaign.SchemeUnSync,
		Trials:   80,
		Seed:     7,
		MaxSteps: 20_000,
		Workers:  workers,
	}

	off := spec
	off.Checkpoint = filepath.Join(dir, "off.jsonl")
	resOff, err := campaign.Run(prog, off)
	if err != nil {
		t.Fatalf("plane-off run: %v", err)
	}

	plane, err := NewPlane(PlaneConfig{
		DLQ: filepath.Join(dir, "dlq.jsonl"),
		Key: spec.Normalized().Key(campaign.ProgHash(prog)),
	})
	if err != nil {
		t.Fatal(err)
	}
	on := spec
	on.Checkpoint = filepath.Join(dir, "on.jsonl")
	on.Observer = plane.Observe
	resOn, err := campaign.Run(prog, on)
	if err != nil {
		t.Fatalf("plane-on run: %v", err)
	}
	if err := plane.Close(); err != nil {
		t.Fatalf("plane close: %v", err)
	}

	if !reflect.DeepEqual(resOff, resOn) {
		t.Errorf("Result differs with the plane enabled:\noff: %+v\non:  %+v", resOff, resOn)
	}
	jOff, err := os.ReadFile(off.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	jOn, err := os.ReadFile(on.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	if workers > 1 {
		jOff, jOn = indexSorted(t, jOff), indexSorted(t, jOn)
	}
	if !bytes.Equal(jOff, jOn) {
		t.Error("checkpoint journal differs with the plane enabled")
	}

	fr := plane.Snapshot()
	if fr.Done != uint64(resOn.Ran) || fr.Failed != uint64(resOn.Failed) {
		t.Errorf("plane counts done=%d failed=%d, campaign ran=%d failed=%d",
			fr.Done, fr.Failed, resOn.Ran, resOn.Failed)
	}
	if fr.Rate != resOn.SDCRate || fr.Lo != resOn.SDCLo || fr.Hi != resOn.SDCHi {
		t.Errorf("plane interval (%v [%v,%v]) disagrees with campaign (%v [%v,%v])",
			fr.Rate, fr.Lo, fr.Hi, resOn.SDCRate, resOn.SDCLo, resOn.SDCHi)
	}
	if fr.DLQDepth != 0 || fr.Dropped != 0 {
		t.Errorf("clean campaign left plane residue: %+v", fr)
	}
}

// indexSorted returns a JSONL trial journal with its lines stably
// sorted by trial index: the bytes a single-worker run writes.
func indexSorted(t *testing.T, journal []byte) []byte {
	t.Helper()
	type line struct {
		index int
		text  []byte
	}
	var lines []line
	for _, l := range bytes.SplitAfter(journal, []byte("\n")) {
		if len(l) == 0 {
			continue
		}
		var rec campaign.TrialRecord
		if err := json.Unmarshal(l, &rec); err != nil {
			t.Fatalf("journal line %q: %v", l, err)
		}
		lines = append(lines, line{rec.Index, l})
	}
	slices.SortStableFunc(lines, func(a, b line) int { return a.index - b.index })
	var out bytes.Buffer
	for _, l := range lines {
		out.Write(l.text)
	}
	return out.Bytes()
}

// A resumed campaign replays its journaled records through the
// observer before running the tail. Wired the way production wires it
// — a fresh plane per RunContext — the resumed run's plane sees every
// trial exactly once, so its final frame agrees with the Result.
func TestPlaneAbsorbsResumeReplay(t *testing.T) {
	prog := asm.MustAssemble(checksumProgram)
	ck := filepath.Join(t.TempDir(), "ck.jsonl")
	spec := campaign.Spec{
		Scheme:   campaign.SchemeUnSync,
		Trials:   60,
		Seed:     7,
		MaxSteps: 20_000,
		Workers:  2,
	}

	run := func(s campaign.Spec) (campaign.Result, Frame, error) {
		t.Helper()
		plane, err := NewPlane(PlaneConfig{})
		if err != nil {
			t.Fatal(err)
		}
		tap := plane.Subscribe(1)
		s.Checkpoint = ck
		s.Observer = plane.Observe
		res, runErr := campaign.Run(prog, s)
		if err := plane.Close(); err != nil {
			t.Fatalf("plane close: %v", err)
		}
		var last Frame
		for fr := range tap.C {
			last = fr
		}
		if !last.Final {
			t.Fatalf("tap closed without the final frame: %+v", last)
		}
		return res, last, runErr
	}

	killed := spec
	killed.StopAfter = 25
	if _, fr, err := run(killed); err == nil {
		t.Fatal("StopAfter run did not report interruption")
	} else if fr.Done != 25 {
		t.Fatalf("interrupted run's plane saw %d trials, want 25", fr.Done)
	}

	resumed := spec
	resumed.Resume = true
	res, fr, err := run(resumed)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if fr.Done != uint64(res.Ran) || fr.Failed != uint64(res.Failed) {
		t.Errorf("final frame done=%d failed=%d, campaign ran=%d failed=%d",
			fr.Done, fr.Failed, res.Ran, res.Failed)
	}
	if fr.Rate != res.SDCRate || fr.Lo != res.SDCLo || fr.Hi != res.SDCHi {
		t.Errorf("final frame interval (%v [%v,%v]) disagrees with campaign (%v [%v,%v])",
			fr.Rate, fr.Lo, fr.Hi, res.SDCRate, res.SDCLo, res.SDCHi)
	}
}

// A subscriber that never reads must not slow the producer: Observe
// never waits on a tap. The final frame still reaches the stalled tap.
func TestPlaneStalledSubscriberCannotDelayObserve(t *testing.T) {
	plane, err := NewPlane(PlaneConfig{})
	if err != nil {
		t.Fatal(err)
	}
	tap := plane.Subscribe(1) // stalled: nothing reads until after Close
	const n = 5000
	start := time.Now() //unsync:allow-wallclock test wall-time bound, not a trial outcome
	for i := 0; i < n; i++ {
		plane.Observe(rec(i, "benign"))
	}
	elapsed := time.Since(start)
	if err := plane.Close(); err != nil {
		t.Fatal(err)
	}
	// Generous bound: 5000 in-memory records take milliseconds; a
	// tap-coupled Observe would hang forever (the tap holds 1 frame and
	// nobody reads).
	if elapsed > 30*time.Second {
		t.Fatalf("Observe of %d records took %v with a stalled subscriber", n, elapsed)
	}
	var last Frame
	got := false
	for fr := range tap.C {
		last, got = fr, true
	}
	if !got || !last.Final || last.Done != n {
		t.Fatalf("stalled tap final frame = %+v (got=%v), want Final with done=%d", last, got, n)
	}
}

// Retry-exhausted and malformed records land in the sidecar, each
// under its reason and with the full attempt chain; a healthy record
// does not. A second plane over the same sidecar replays them instead
// of re-capturing.
func TestPlaneDeadLettersWithChain(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dlq.jsonl")
	plane, err := NewPlane(PlaneConfig{DLQ: path, Key: "k"})
	if err != nil {
		t.Fatal(err)
	}
	plane.Observe(failedRec(3))
	plane.Observe(rec(4, "benign"))
	plane.Observe(rec(5, "no-such-outcome"))
	if err := plane.Close(); err != nil {
		t.Fatal(err)
	}
	if plane.DLQDepth() != 2 {
		t.Fatalf("DLQDepth=%d, want 2", plane.DLQDepth())
	}
	entries, err := ReadDLQ(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0].Reason != ReasonRetryExhausted || entries[1].Reason != ReasonMalformed {
		t.Fatalf("sidecar entries: %+v", entries)
	}
	if len(entries[0].Rec.AttemptErrs) != 2 {
		t.Fatalf("attempt chain lost: %+v", entries[0].Rec.AttemptErrs)
	}

	plane2, err := NewPlane(PlaneConfig{DLQ: path, Key: "k"})
	if err != nil {
		t.Fatal(err)
	}
	plane2.Observe(failedRec(3)) // the restart replay case
	if err := plane2.Close(); err != nil {
		t.Fatal(err)
	}
	if plane2.DLQDepth() != 2 {
		t.Fatalf("restarted plane depth=%d, want 2 (replayed, not re-captured)", plane2.DLQDepth())
	}
	entries, err = ReadDLQ(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("sidecar grew to %d entries on replay", len(entries))
	}
}

// Close racing concurrent Observe calls must never deadlock, and
// every record is accounted for exactly once: folded in before Close
// (Done) or refused after it (Dropped). A dead record observed after
// Close counts as dropped and never reaches the closed sidecar.
func TestPlaneCloseRacesObserve(t *testing.T) {
	const producers, perProducer = 4, 250
	const sent = producers * perProducer
	plane, err := NewPlane(PlaneConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < producers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				plane.Observe(rec(w*perProducer+i, "benign"))
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	if err := plane.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Observe deadlocked against a closing plane")
	}
	if fr := plane.Snapshot(); fr.Done+plane.Dropped() != sent {
		t.Fatalf("done=%d + dropped=%d, want %d records sent", fr.Done, plane.Dropped(), sent)
	}

	path := filepath.Join(t.TempDir(), "dlq.jsonl")
	dlqPlane, err := NewPlane(PlaneConfig{DLQ: path, Key: "k"})
	if err != nil {
		t.Fatal(err)
	}
	dlqPlane.Observe(failedRec(1))
	if err := dlqPlane.Close(); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dlqPlane.Observe(failedRec(2))
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("dead record observed after Close changed the sidecar:\nbefore: %s\nafter:  %s", before, after)
	}
	if dlqPlane.Dropped() != 1 || dlqPlane.DLQDepth() != 1 {
		t.Fatalf("after-Close dead record: dropped=%d depth=%d, want 1, 1", dlqPlane.Dropped(), dlqPlane.DLQDepth())
	}
}

// Every exported Plane method tolerates a nil receiver so call sites
// wire the observer unconditionally.
func TestPlaneNilSafe(t *testing.T) {
	var p *Plane
	p.Observe(rec(0, "benign"))
	if fr := p.Snapshot(); fr != (Frame{}) {
		t.Fatalf("nil Snapshot = %+v", fr)
	}
	if p.DLQDepth() != 0 || p.Dropped() != 0 {
		t.Fatal("nil counters nonzero")
	}
	if err := p.Close(); err != nil {
		t.Fatalf("nil Close = %v", err)
	}
}

// Frames honor the throttle under a fake clock: with a 100ms cadence
// and no time advancing, a burst publishes at most the first frame —
// then Close always delivers the final state.
func TestPlaneThrottledFramesUnderFakeClock(t *testing.T) {
	plane, err := NewPlane(PlaneConfig{EmitEvery: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	fakeNow(plane)
	tap := plane.Subscribe(64)
	for i := 0; i < 50; i++ {
		plane.Observe(rec(i, "benign"))
	}
	if err := plane.Close(); err != nil {
		t.Fatal(err)
	}
	var frames []Frame
	for fr := range tap.C {
		frames = append(frames, fr)
	}
	// At most: one throttled frame (the first Allow always passes) plus
	// the final. Time never advanced, so everything between was muted.
	if len(frames) > 2 {
		t.Fatalf("throttle leaked %d frames with a frozen clock", len(frames))
	}
	last := frames[len(frames)-1]
	if !last.Final || last.Done != 50 {
		t.Fatalf("final frame %+v, want Final done=50", last)
	}
}

// The plane classifies records exactly as campaign.Result.finish does:
// harness errors and unknown outcome names are failed, everything else
// feeds the Wilson interval on the SDC rate.
func TestTrackerMatchesCampaignClassification(t *testing.T) {
	p, err := NewPlane(PlaneConfig{})
	if err != nil {
		t.Fatal(err)
	}
	p.Observe(rec(0, "sdc"))
	p.Observe(rec(1, "benign"))
	p.Observe(failedRec(2))
	p.Observe(rec(3, "no-such-outcome"))
	fr := p.Snapshot()
	if fr.Done != 4 || fr.Failed != 2 || fr.DLQDepth != 2 {
		t.Fatalf("done=%d failed=%d dlq=%d, want 4, 2, 2", fr.Done, fr.Failed, fr.DLQDepth)
	}
	if fr.Rate != 0.5 {
		t.Fatalf("rate=%v, want 0.5 (1 sdc over 2 successful)", fr.Rate)
	}
	lo, hi := stats.Wilson(1, 2, 1.96)
	if fr.Lo != lo || fr.Hi != hi || fr.Width != hi-lo {
		t.Fatalf("interval [%v,%v] width %v, want Wilson(1,2,1.96) = [%v,%v]", fr.Lo, fr.Hi, fr.Width, lo, hi)
	}
}

func TestTrackerEmptySnapshot(t *testing.T) {
	p, err := NewPlane(PlaneConfig{})
	if err != nil {
		t.Fatal(err)
	}
	fr := p.Snapshot()
	lo, hi := stats.Wilson(0, 0, 1.96)
	if fr.Done != 0 || fr.Rate != 0 || fr.WindowLen != 0 || fr.Lo != lo || fr.Hi != hi {
		t.Fatalf("empty plane snapshot %+v, want zero counts and Wilson(0,0)", fr)
	}
}

// The window holds the last 128 records: the 129th evicts the first,
// so the windowed rate forgets an early SDC the lifetime rate keeps.
func TestWindowSlidingEviction(t *testing.T) {
	p, err := NewPlane(PlaneConfig{})
	if err != nil {
		t.Fatal(err)
	}
	p.Observe(rec(0, "sdc"))
	for i := 1; i < 128; i++ {
		p.Observe(rec(i, "benign"))
	}
	if fr := p.Snapshot(); fr.WindowLen != 128 || fr.WindowRate != 1.0/128 {
		t.Fatalf("full window: len=%d rate=%v, want 128, 1/128", fr.WindowLen, fr.WindowRate)
	}
	p.Observe(rec(128, "benign"))
	fr := p.Snapshot()
	if fr.WindowLen != 128 || fr.WindowRate != 0 {
		t.Fatalf("after eviction: len=%d rate=%v, want 128, 0", fr.WindowLen, fr.WindowRate)
	}
	if fr.Rate != 1.0/129 {
		t.Fatalf("lifetime rate=%v, want 1/129", fr.Rate)
	}
}

// Failed and malformed records occupy a window slot but never enter
// the rate denominator — mirroring the campaign tally.
func TestWindowExcludesFailedFromRate(t *testing.T) {
	p, err := NewPlane(PlaneConfig{})
	if err != nil {
		t.Fatal(err)
	}
	p.Observe(rec(0, "sdc"))
	p.Observe(failedRec(1))
	if fr := p.Snapshot(); fr.WindowLen != 2 || fr.WindowRate != 1.0 {
		t.Fatalf("sdc+failed: len=%d rate=%v, want 2, 1.0", fr.WindowLen, fr.WindowRate)
	}
	for i := 2; i <= 128; i++ {
		p.Observe(rec(i, "no-such-outcome")) // malformed; the last evicts the sdc slot
	}
	fr := p.Snapshot()
	if fr.WindowLen != 128 || fr.WindowRate != 0 {
		t.Fatalf("after evicting the only ok record: len=%d rate=%v, want 128, 0", fr.WindowLen, fr.WindowRate)
	}
	if fr.Done != 129 || fr.Failed != 128 || fr.Rate != 1.0 {
		t.Fatalf("lifetime done=%d failed=%d rate=%v, want 129, 128, 1.0", fr.Done, fr.Failed, fr.Rate)
	}
}
