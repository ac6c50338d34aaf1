package fault

import (
	"errors"
	"math"
	"testing"

	"github.com/cmlasu/unsync/internal/asm"
)

func TestSERExpectedErrors(t *testing.T) {
	s := Paper90nm()
	if s.PerInst != 2.89e-17 {
		t.Errorf("paper SER = %g", s.PerInst)
	}
	if got := (SER{PerInst: 1e-6}).ExpectedErrors(2_000_000); math.Abs(got-2) > 1e-9 {
		t.Errorf("ExpectedErrors = %g, want 2", got)
	}
}

func TestArrivalsMeanMatchesRate(t *testing.T) {
	a := NewArrivals(SER{PerInst: 1e-4}, 42)
	var sum float64
	const n = 5000
	for i := 0; i < n; i++ {
		sum += float64(a.Next())
	}
	mean := sum / n
	if mean < 8_000 || mean > 12_000 {
		t.Errorf("mean inter-arrival = %.0f, want ~10000", mean)
	}
}

func TestArrivalsZeroRateNeverFires(t *testing.T) {
	a := NewArrivals(SER{}, 1)
	if a.Next() != math.MaxUint64 {
		t.Error("zero rate should never fire")
	}
}

func TestArrivalsDeterministic(t *testing.T) {
	a := NewArrivals(SER{PerInst: 1e-3}, 7)
	b := NewArrivals(SER{PerInst: 1e-3}, 7)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("arrivals not deterministic")
		}
	}
}

func TestPickBounds(t *testing.T) {
	a := NewArrivals(SER{PerInst: 1}, 3)
	for i := 0; i < 1000; i++ {
		if v := a.Pick(7); v < 0 || v >= 7 {
			t.Fatalf("Pick out of range: %d", v)
		}
	}
	if a.Pick(0) != 0 || a.Pick(1) != 0 {
		t.Error("degenerate Pick should be 0")
	}
}

func TestBreakEven(t *testing.T) {
	// UnSync faster error-free (ipc1=1.2) with expensive recovery
	// (5000 cycles); Reunion slower (ipc2=1.0), cheap rollback (40).
	r := BreakEven(1.2, 5000, 1.0, 40)
	if r <= 0 {
		t.Fatal("no break-even found")
	}
	// At the break-even rate the two effective IPCs must match.
	e1 := EffectiveIPC(1.2, 5000, r)
	e2 := EffectiveIPC(1.0, 40, r)
	if math.Abs(e1-e2)/e1 > 1e-9 {
		t.Errorf("effective IPCs at break-even differ: %g vs %g", e1, e2)
	}
	// Below break-even the faster scheme wins; above, the cheaper one.
	if EffectiveIPC(1.2, 5000, r/10) <= EffectiveIPC(1.0, 40, r/10) {
		t.Error("below break-even UnSync should win")
	}
	if EffectiveIPC(1.2, 5000, r*10) >= EffectiveIPC(1.0, 40, r*10) {
		t.Error("above break-even Reunion should win")
	}
	// Dominance (faster AND cheaper) -> no positive break-even.
	if BreakEven(1.2, 40, 1.0, 5000) != 0 {
		t.Error("dominated configuration should have no positive break-even")
	}
	if BreakEven(0, 1, 1, 1) != 0 || BreakEven(1, 1, 1, 0.99999) == 0 {
		_ = 0 // boundary behavior exercised
	}
}

func TestROECStructural(t *testing.T) {
	u := UnSyncCoverage()
	r := ReunionCoverage()
	// Every target is assigned under both schemes.
	for tgt := Target(0); tgt < NumTargets; tgt++ {
		if _, ok := u[tgt]; !ok {
			t.Errorf("UnSync coverage missing %v", tgt)
		}
		if _, ok := r[tgt]; !ok {
			t.Errorf("Reunion coverage missing %v", tgt)
		}
		if Bits(tgt) <= 0 {
			t.Errorf("Bits(%v) = %g", tgt, Bits(tgt))
		}
	}
	// §VI-D: UnSync's ROEC strictly contains Reunion's.
	if ROECBits(u) <= ROECBits(r) {
		t.Errorf("UnSync ROEC (%.0f bits) not larger than Reunion's (%.0f)",
			ROECBits(u), ROECBits(r))
	}
	// UnSync covers everything.
	if frac := ROECFraction(u); frac != 1 {
		t.Errorf("UnSync ROEC fraction = %g, want 1", frac)
	}
	// Reunion excludes the register file and TLB.
	if r[TargetRegFile] != DetectNone || r[TargetTLB] != DetectNone {
		t.Error("Reunion must not cover ARF/TLB")
	}
	// UnSync protects per-cycle elements with DMR, storage with parity.
	if u[TargetPC] != DetectDMR || u[TargetPipelineRegs] != DetectDMR {
		t.Error("per-cycle elements must use DMR")
	}
	if u[TargetRegFile] != DetectParity || u[TargetL1Data] != DetectParity {
		t.Error("storage elements must use parity")
	}
}

func TestDetectionLatency(t *testing.T) {
	if DetectionLatency(DetectDMR, 10, 10) != 1 {
		t.Error("DMR latency")
	}
	if DetectionLatency(DetectParity, 10, 10) != 2 {
		t.Error("parity latency")
	}
	if DetectionLatency(DetectFingerprint, 10, 10) != 20 {
		t.Error("fingerprint latency")
	}
	if DetectionLatency(DetectNone, 10, 10) != 0 {
		t.Error("none latency")
	}
}

// testProgram computes a checksum over a small array and prints it —
// enough work that most register flips matter.
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

func TestUnSyncTrialRecoversRegisterFlip(t *testing.T) {
	prog := asm.MustAssemble(testProgram)
	// Flip the checksum register mid-computation: detected by parity,
	// recovered by copying the partner's state.
	o, err := UnSyncTrial(prog, 200, Flip{Space: SpaceIntReg, Index: 1, Bit: 13}, true, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if o != OutcomeRecovered {
		t.Errorf("outcome = %v, want recovered", o)
	}
}

func TestUnSyncTrialWithoutDetectionCorrupts(t *testing.T) {
	prog := asm.MustAssemble(testProgram)
	// The same flip with the detection hardware removed silently
	// corrupts the output — what parity/DMR buys.
	o, err := UnSyncTrial(prog, 200, Flip{Space: SpaceIntReg, Index: 1, Bit: 13}, false, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if o != OutcomeSDC {
		t.Errorf("outcome = %v, want sdc", o)
	}
}

func TestUnSyncTrialDeadRegisterBenign(t *testing.T) {
	prog := asm.MustAssemble(testProgram)
	// r29 is never used by the program: the flip is benign even
	// without detection.
	o, err := UnSyncTrial(prog, 100, Flip{Space: SpaceIntReg, Index: 29, Bit: 5}, false, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if o != OutcomeBenign {
		t.Errorf("outcome = %v, want benign", o)
	}
}

func TestUnSyncTrialPCFlipRecovered(t *testing.T) {
	prog := asm.MustAssemble(testProgram)
	o, err := UnSyncTrial(prog, 150, Flip{Space: SpacePC, Bit: 2}, true, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if o != OutcomeRecovered {
		t.Errorf("outcome = %v, want recovered", o)
	}
}

func TestReunionTrialTransientRecovered(t *testing.T) {
	prog := asm.MustAssemble(testProgram)
	// An in-flight result corruption is inside Reunion's ROEC: the
	// fingerprint mismatches and rollback re-executes cleanly.
	o, err := ReunionTrial(prog, 200, Flip{Bit: 7}, true, 10, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if o != OutcomeRecovered {
		t.Errorf("outcome = %v, want recovered", o)
	}
}

func TestReunionTrialPersistentARFUnrecoverable(t *testing.T) {
	prog := asm.MustAssemble(testProgram)
	// A persistent flip in a live architectural register is outside
	// Reunion's ROEC: every rollback re-reads the same flipped cell.
	o, err := ReunionTrial(prog, 200, Flip{Space: SpaceIntReg, Index: 1, Bit: 13}, false, 10, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if o != OutcomeUnrecoverable {
		t.Errorf("outcome = %v, want unrecoverable", o)
	}
}

func TestReunionTrialDeadRegisterBenign(t *testing.T) {
	prog := asm.MustAssemble(testProgram)
	o, err := ReunionTrial(prog, 100, Flip{Space: SpaceIntReg, Index: 29, Bit: 3}, false, 10, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if o != OutcomeBenign {
		t.Errorf("outcome = %v, want benign", o)
	}
}

func TestOutcomeAndTargetStrings(t *testing.T) {
	if OutcomeBenign.String() != "benign" || OutcomeSDC.String() != "sdc" ||
		OutcomeRecovered.String() != "recovered" || OutcomeUnrecoverable.String() != "unrecoverable" {
		t.Error("outcome names")
	}
	if TargetRegFile.String() != "regfile" || TargetL1Data.String() != "l1-data" {
		t.Error("target names")
	}
	if SpacePC.String() != "pc" || SpaceIntReg.String() != "int-reg" || SpaceFPReg.String() != "fp-reg" {
		t.Error("space names")
	}
	if DetectParity.String() != "parity" || DetectFingerprint.String() != "fingerprint" {
		t.Error("detection names")
	}
}

func TestEffectiveIPCMonotone(t *testing.T) {
	base := EffectiveIPC(1.0, 1000, 0)
	if math.Abs(base-1.0) > 1e-12 {
		t.Errorf("zero-rate effective IPC = %g", base)
	}
	if EffectiveIPC(1.0, 1000, 1e-3) >= base {
		t.Error("errors must reduce effective IPC")
	}
	if EffectiveIPC(0, 1000, 1e-3) != 0 {
		t.Error("zero IPC should stay zero")
	}
}

func TestParityLineStrike(t *testing.T) {
	words := []uint64{1, 2, 3, 4}
	if got := ParityLineStrike(words, nil); got != LineClean {
		t.Errorf("no flips = %v", got)
	}
	if got := ParityLineStrike(words, [][2]uint{{0, 5}}); got != LineDetected {
		t.Errorf("single flip = %v, want detected", got)
	}
	// Two flips cancel under one parity bit: silent escape.
	if got := ParityLineStrike(words, [][2]uint{{0, 5}, {2, 7}}); got != LineSilent {
		t.Errorf("double flip = %v, want silent", got)
	}
	// The same bit twice restores the data: clean.
	if got := ParityLineStrike(words, [][2]uint{{0, 5}, {0, 5}}); got != LineClean {
		t.Errorf("self-cancelling flips = %v, want clean", got)
	}
}

func TestSECDEDLineStrike(t *testing.T) {
	words := []uint64{0xdead, 0xbeef, 0xcafe, 0xf00d}
	if got := SECDEDLineStrike(words, 1, nil); got != LineClean {
		t.Errorf("no flips = %v", got)
	}
	if got := SECDEDLineStrike(words, 1, []uint{9}); got != LineCorrected {
		t.Errorf("single = %v, want corrected", got)
	}
	if got := SECDEDLineStrike(words, 1, []uint{9, 33}); got != LineDetected {
		t.Errorf("double = %v, want detected", got)
	}
	if got := SECDEDLineStrike(words, 2, []uint{9, 9}); got != LineClean {
		t.Errorf("self-cancelling = %v, want clean", got)
	}
}

func TestRunLineStudyGuarantees(t *testing.T) {
	st := RunLineStudy(500, 99)
	// Coding-theory guarantees, empirically confirmed:
	if st.ParitySingleDetected != 1 {
		t.Errorf("parity single detection = %.3f, want 1", st.ParitySingleDetected)
	}
	if st.ParityDoubleSilent != 1 {
		t.Errorf("parity double escape = %.3f, want 1 (same-line double flips cancel)", st.ParityDoubleSilent)
	}
	if st.SECDEDSingleFixed != 1 {
		t.Errorf("SECDED single correction = %.3f, want 1", st.SECDEDSingleFixed)
	}
	if st.SECDEDDoubleCaught != 1 {
		t.Errorf("SECDED double detection = %.3f, want 1", st.SECDEDDoubleCaught)
	}
}

func TestLineOutcomeString(t *testing.T) {
	if LineClean.String() != "clean" || LineDetected.String() != "detected" ||
		LineCorrected.String() != "corrected" || LineSilent.String() != "silent" {
		t.Error("line outcome names wrong")
	}
}

// spinProgram counts r2 up to the bound held in r1. Flipping a high bit
// of r1 turns the loop into a livelock: the watchdog case.
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

func TestFlipValidate(t *testing.T) {
	bad := []Flip{
		{Space: SpaceIntReg, Index: 0, Bit: 3},  // r0 is hardwired
		{Space: SpaceIntReg, Index: 32, Bit: 3}, // register out of range
		{Space: SpaceIntReg, Index: 5, Bit: 64}, // bit out of range
		{Space: SpaceFPReg, Index: 200, Bit: 0}, // register out of range
		{Space: SpaceFPReg, Index: 0, Bit: 255}, // bit out of range
		{Space: SpacePC, Bit: 6},                // pc bit out of range
		{Space: SpaceMem, Addr: 0x10000, Bit: 64},
		{Space: SpaceCB, Bit: 77},
		{Space: NumSpaces, Bit: 0}, // unknown space
	}
	for _, f := range bad {
		if err := f.Validate(); !errors.Is(err, ErrInvalidFlip) {
			t.Errorf("Validate(%+v) = %v, want ErrInvalidFlip", f, err)
		}
	}
	good := []Flip{
		{Space: SpaceIntReg, Index: 1, Bit: 0},
		{Space: SpaceIntReg, Index: 31, Bit: 63},
		{Space: SpaceFPReg, Index: 0, Bit: 63},
		{Space: SpacePC, Bit: 5},
		{Space: SpaceMem, Addr: 0x10000, Bit: 63},
		{Space: SpaceCB, Bit: 63},
	}
	for _, f := range good {
		if err := f.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", f, err)
		}
	}
}

// TestTrialRejectsInvalidFlip proves a bad site is an error at the
// trial API, not a silent no-op (the old Apply behavior).
func TestTrialRejectsInvalidFlip(t *testing.T) {
	prog := asm.MustAssemble(testProgram)
	if _, err := UnSyncTrial(prog, 10, Flip{Space: SpaceIntReg, Index: 0}, true, 100_000); !errors.Is(err, ErrInvalidFlip) {
		t.Errorf("UnSyncTrial(r0 flip) err = %v, want ErrInvalidFlip", err)
	}
	if _, err := ReunionTrial(prog, 10, Flip{Space: SpaceFPReg, Index: 99}, false, 10, 100_000); !errors.Is(err, ErrInvalidFlip) {
		t.Errorf("ReunionTrial(bad fp flip) err = %v, want ErrInvalidFlip", err)
	}
}

// TestReunionTrialFIOne: the shortest fingerprint window still detects
// and heals an in-flight corruption.
func TestReunionTrialFIOne(t *testing.T) {
	prog := asm.MustAssemble(testProgram)
	o, err := ReunionTrial(prog, 200, Flip{Bit: 7}, true, 1, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if o != OutcomeRecovered {
		t.Errorf("outcome = %v, want recovered", o)
	}
}

// TestReunionTrialFIBeyondProgram: a fingerprint interval longer than
// the whole program closes its only window at halt and still recovers.
func TestReunionTrialFIBeyondProgram(t *testing.T) {
	prog := asm.MustAssemble(testProgram)
	o, err := ReunionTrial(prog, 200, Flip{Bit: 7}, true, 1<<20, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if o != OutcomeRecovered {
		t.Errorf("outcome = %v, want recovered", o)
	}
}

// TestTrialsFlipPastHaltBenign: an injection scheduled after the
// program halts never lands; the trial is benign under both schemes.
func TestTrialsFlipPastHaltBenign(t *testing.T) {
	prog := asm.MustAssemble(testProgram)
	const farStep = 10_000_000
	o, err := UnSyncTrial(prog, farStep, Flip{Space: SpaceIntReg, Index: 1, Bit: 13}, true, 20_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if o != OutcomeBenign {
		t.Errorf("UnSync outcome = %v, want benign", o)
	}
	o, err = ReunionTrial(prog, farStep, Flip{Bit: 7}, true, 10, 20_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if o != OutcomeBenign {
		t.Errorf("Reunion outcome = %v, want benign", o)
	}
}

// TestReunionTrialBudgetBound pins the legacy maxSteps*4 bound: a
// persistent flip of the loop bound livelocks rollback re-execution and
// the legacy wrapper classifies the killed trial unrecoverable.
func TestReunionTrialBudgetBound(t *testing.T) {
	prog := asm.MustAssemble(spinProgram)
	o, err := ReunionTrial(prog, 3, Flip{Space: SpaceIntReg, Index: 1, Bit: 62}, false, 10, 5_000)
	if err != nil {
		t.Fatal(err)
	}
	if o != OutcomeUnrecoverable {
		t.Errorf("outcome = %v, want unrecoverable (legacy fold of hang)", o)
	}
}

// TestUnSyncWatchdogHang is the watchdog acceptance test: an undetected
// flip of the loop bound livelocks core A, and the step budget kills
// the trial as OutcomeHang instead of spinning forever.
func TestUnSyncWatchdogHang(t *testing.T) {
	prog := asm.MustAssemble(spinProgram)
	opts := TrialOpts{MaxSteps: 10_000, StepBudget: 20_000}
	o, err := RunUnSyncTrial(prog, 3, Flip{Space: SpaceIntReg, Index: 1, Bit: 62}, false, opts)
	if err != nil {
		t.Fatal(err)
	}
	if o != OutcomeHang {
		t.Errorf("outcome = %v, want hang", o)
	}
}

// TestReunionWatchdogHang: a transient flip of the loop bound's
// in-flight result livelocks core A, and with a fingerprint window
// longer than the step budget the mismatch is never observed — the
// watchdog, not the fingerprint, must kill the trial as OutcomeHang.
// (A persistent flip is instead caught by the rollback cap and
// classified unrecoverable — see TestReunionTrialBudgetBound.)
func TestReunionWatchdogHang(t *testing.T) {
	prog := asm.MustAssemble(spinProgram)
	opts := TrialOpts{MaxSteps: 10_000, StepBudget: 20_000}
	o, err := RunReunionTrial(prog, 0, Flip{Bit: 62}, true, 1<<20, opts)
	if err != nil {
		t.Fatal(err)
	}
	if o != OutcomeHang {
		t.Errorf("outcome = %v, want hang", o)
	}
}

func TestNewStrings(t *testing.T) {
	if OutcomeHang.String() != "hang" {
		t.Error("OutcomeHang name")
	}
	if TargetCB.String() != "comm-buffer" {
		t.Error("TargetCB name")
	}
	if SpaceMem.String() != "mem" || SpaceCB.String() != "cb" {
		t.Error("new space names")
	}
	if s, ok := SpaceByName("cb"); !ok || s != SpaceCB {
		t.Error("SpaceByName(cb)")
	}
	if o, ok := OutcomeByName("hang"); !ok || o != OutcomeHang {
		t.Error("OutcomeByName(hang)")
	}
	if _, ok := OutcomeByName("nope"); ok {
		t.Error("OutcomeByName should reject unknown names")
	}
}

// TestCBCoverageEntries pins the uncore extension of the coverage maps:
// UnSync leaves the Communication Buffer unprotected, Reunion's
// synchronizing store buffer covers it — while the per-core ROEC
// accounting (NumTargets-bounded) is unchanged by the new target.
func TestCBCoverageEntries(t *testing.T) {
	if UnSyncCoverage().Detects(SpaceCB) != DetectNone {
		t.Error("UnSync CB must be unprotected (uncore)")
	}
	if ReunionCoverage().Detects(SpaceCB) != DetectFingerprint {
		t.Error("Reunion CB must be fingerprint-covered")
	}
	if TargetCB < NumTargets {
		t.Error("TargetCB must sit outside the per-core accounting range")
	}
	if Bits(TargetCB) != CBEntries*128 {
		t.Errorf("Bits(TargetCB) = %g", Bits(TargetCB))
	}
}
