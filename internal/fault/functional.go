package fault

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"github.com/cmlasu/unsync/internal/asm"
	"github.com/cmlasu/unsync/internal/emu"
	"github.com/cmlasu/unsync/internal/isa"
	"github.com/cmlasu/unsync/internal/reunion/crc"
)

// This file implements emulator-level (architecturally exact) fault
// injection — the §VI-D verification that "both UnSync and Reunion
// architectures execute programs correctly in the presence of errors",
// and the demonstration of where their regions of error coverage end.
//
// UnSync semantics: the flipped element is detected locally (parity /
// DMR) and the architectural state of the error-free core is copied
// over the erroneous core; execution is always-forward.
//
// Reunion semantics: the corruption surfaces (or not) in the CRC-16
// fingerprint of the enclosing window. A mismatch rolls both cores back
// to the last verified boundary and re-executes. Transient in-flight
// errors are healed by re-execution; a persistently flipped register
// cell survives rollback (Reunion keeps no ARF checkpoint), so a
// consumed-before-overwritten flip livelocks and is detected but
// unrecoverable — it lies outside Reunion's ROEC.

// Space selects the architectural state a functional flip targets.
type Space uint8

const (
	SpaceIntReg Space = iota
	SpaceFPReg
	SpacePC
	// SpaceMem flips a bit of the 64-bit word at Flip.Addr in the
	// emulator's data memory — the L1-data case of the coverage maps.
	SpaceMem
	// SpaceCB corrupts a Communication Buffer entry: the next store the
	// faulted core commits lands in memory with one flipped bit while
	// its architectural registers stay clean — the uncore case. The
	// flip has no storage of its own, so Flip.Apply is a no-op for it;
	// the trial runners intercept the store in flight.
	SpaceCB
	// NumSpaces bounds the valid Space values.
	NumSpaces
)

// String names the injection space.
func (s Space) String() string {
	switch s {
	case SpaceIntReg:
		return "int-reg"
	case SpaceFPReg:
		return "fp-reg"
	case SpacePC:
		return "pc"
	case SpaceMem:
		return "mem"
	case SpaceCB:
		return "cb"
	}
	return "space(?)"
}

// SpaceByName resolves a space name as printed by String.
func SpaceByName(name string) (Space, bool) {
	for s := Space(0); s < NumSpaces; s++ {
		if s.String() == name {
			return s, true
		}
	}
	return 0, false
}

// SpaceTarget maps a functional injection space to the structural
// target whose detection assignment (Coverage) governs it.
func SpaceTarget(s Space) Target {
	switch s {
	case SpaceIntReg, SpaceFPReg:
		return TargetRegFile
	case SpacePC:
		return TargetPC
	case SpaceMem:
		return TargetL1Data
	case SpaceCB:
		return TargetCB
	}
	return NumTargets
}

// Detects returns the mechanism covering flips in space s under this
// coverage assignment (DetectNone when the space is unprotected).
func (c Coverage) Detects(s Space) Detection { return c[SpaceTarget(s)] }

// Flip is one single-bit architectural upset.
type Flip struct {
	Space Space
	Index uint8  // register number (int/fp register spaces only)
	Bit   uint8  // 0..63 (0..5 for PC: the flip lands on PC bits 2..7)
	Addr  uint64 // memory address (SpaceMem only)
}

// ErrInvalidFlip reports a flip outside the injectable space.
var ErrInvalidFlip = errors.New("fault: invalid flip")

// Validate rejects flips that Apply could not land exactly where they
// claim: out-of-range registers, the hardwired r0, and out-of-range bit
// positions. The public API and the campaign engine validate every flip
// before running a trial, so a bad site is an error, not a silent no-op
// or a modulo wrap onto some other structure.
func (f Flip) Validate() error {
	switch f.Space {
	case SpaceIntReg:
		if f.Index == 0 {
			return fmt.Errorf("%w: int register r0 is hardwired to zero", ErrInvalidFlip)
		}
		if f.Index >= isa.NumRegs {
			return fmt.Errorf("%w: int register %d out of range [1,%d)", ErrInvalidFlip, f.Index, isa.NumRegs)
		}
		if f.Bit > 63 {
			return fmt.Errorf("%w: bit %d out of range [0,64)", ErrInvalidFlip, f.Bit)
		}
	case SpaceFPReg:
		if f.Index >= isa.NumRegs {
			return fmt.Errorf("%w: fp register %d out of range [0,%d)", ErrInvalidFlip, f.Index, isa.NumRegs)
		}
		if f.Bit > 63 {
			return fmt.Errorf("%w: bit %d out of range [0,64)", ErrInvalidFlip, f.Bit)
		}
	case SpacePC:
		if f.Bit > 5 {
			return fmt.Errorf("%w: pc bit %d out of range [0,6) (flips land on PC bits 2..7)", ErrInvalidFlip, f.Bit)
		}
	case SpaceMem, SpaceCB:
		if f.Bit > 63 {
			return fmt.Errorf("%w: bit %d out of range [0,64)", ErrInvalidFlip, f.Bit)
		}
	default:
		return fmt.Errorf("%w: unknown space %d", ErrInvalidFlip, f.Space)
	}
	return nil
}

// Apply injects a validated flip into a machine. Out-of-range flips are
// skipped rather than wrapped — Validate is the contract, Apply only
// keeps an invalid flip from corrupting an unintended structure.
func (f Flip) Apply(m *emu.Machine) {
	switch f.Space {
	case SpaceIntReg:
		if f.Index != 0 && f.Index < isa.NumRegs && f.Bit < 64 {
			m.Regs[f.Index] ^= 1 << f.Bit
		}
	case SpaceFPReg:
		if f.Index < isa.NumRegs && f.Bit < 64 {
			m.FRegs[f.Index] ^= 1 << f.Bit
		}
	case SpacePC:
		// Flip within the low bits so the PC stays near the text
		// section (a far flip is detected trivially by a fetch fault).
		if f.Bit < 6 {
			m.PC ^= 1 << (2 + f.Bit)
		}
	case SpaceMem:
		if f.Bit < 64 {
			m.Mem.Write(f.Addr, m.Mem.Read(f.Addr, 8)^1<<f.Bit, 8)
		}
	case SpaceCB:
		// No architectural storage of its own: the corruption lands on
		// the next committed store in flight (see the trial runners).
	}
}

// Outcome classifies one injection trial.
type Outcome uint8

const (
	// OutcomeBenign: the flip never affected architectural results.
	OutcomeBenign Outcome = iota
	// OutcomeRecovered: detected and recovered; final output correct.
	OutcomeRecovered
	// OutcomeUnrecoverable: detected but recovery cannot make forward
	// progress (outside the scheme's ROEC).
	OutcomeUnrecoverable
	// OutcomeSDC: silent data corruption — wrong output, no detection.
	OutcomeSDC
	// OutcomeHang: the faulted run exceeded its step budget without
	// halting — a livelock or runaway killed by the trial watchdog
	// (detected in hardware by a timeout, a DUE rather than an SDC).
	OutcomeHang
	// NumOutcomes bounds the valid Outcome values.
	NumOutcomes
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case OutcomeBenign:
		return "benign"
	case OutcomeRecovered:
		return "recovered"
	case OutcomeUnrecoverable:
		return "unrecoverable"
	case OutcomeSDC:
		return "sdc"
	case OutcomeHang:
		return "hang"
	}
	return "outcome(?)"
}

// OutcomeByName resolves an outcome name as printed by String.
func OutcomeByName(name string) (Outcome, bool) {
	for o := Outcome(0); o < NumOutcomes; o++ {
		if o.String() == name {
			return o, true
		}
	}
	return 0, false
}

// ErrGoldenFailed reports that the fault-free reference run failed.
var ErrGoldenFailed = errors.New("fault: golden run failed")

// Golden executes the program fault-free and returns the halted
// reference machine, for callers to share across trials via
// TrialOpts.Golden. Campaigns run it through RecordTrace, which also
// records the run for the batch kernels.
func Golden(prog *asm.Program, maxSteps uint64) (*emu.Machine, error) {
	return golden(prog, maxSteps, nil)
}

// golden is Golden with an optional per-commit hook (RecordTrace's
// recorder); the returned machine carries no hook.
func golden(prog *asm.Program, maxSteps uint64, onCommit func(emu.Commit)) (*emu.Machine, error) {
	g := emu.New(prog)
	g.OnCommit = onCommit
	err := g.Run(maxSteps)
	g.OnCommit = nil
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrGoldenFailed, err)
	}
	if !g.Halted {
		return nil, fmt.Errorf("%w: did not halt", ErrGoldenFailed)
	}
	return g, nil
}

// sameOutput reports whether an observed output stream matches the
// golden one. Shared by the scalar trial kernels and the batched lane
// kernels in batch.go.
func sameOutput(out, golden []uint64) bool {
	return slices.Equal(out, golden)
}

func sameOutputAs(m *emu.Machine, out []uint64) bool {
	return sameOutput(m.Output, out)
}

// TrialOpts bounds one injection trial.
type TrialOpts struct {
	// MaxSteps is the fault-free (golden) run's step budget.
	MaxSteps uint64
	// StepBudget is the watchdog: the faulted pair may run at most this
	// many steps beyond the golden instruction count before the trial
	// is killed and classified OutcomeHang. 0 selects 4×MaxSteps.
	StepBudget uint64
	// Golden, when non-nil, is a pre-run fault-free reference for this
	// program (it must have halted). Campaigns set it so n trials share
	// one golden run instead of recomputing it n times.
	Golden *emu.Machine
	// Trace, when non-nil, is the recorded golden run of this program
	// under MaxSteps (RecordTrace). The batch kernels read it — its
	// Golden included — instead of recording their own; campaigns
	// record it once and share it across every batch.
	Trace *Trace
	// Ctx, when non-nil, is polled every trialCtxQuantum emulated steps:
	// on cancellation the trial aborts and returns the cancellation
	// cause as its error. The step budget stays the deterministic
	// watchdog; Ctx lets a caller bound a trial in wall-clock time (a
	// per-trial deadline) or abandon it (a cancelled campaign).
	Ctx context.Context
}

// trialCtxQuantum is how many emulated steps may pass between context
// polls inside a trial loop — the trial's cancellation latency.
const trialCtxQuantum = 4096

// interruptChecker polls TrialOpts.Ctx every trialCtxQuantum calls. The
// zero-context checker never interrupts and costs one nil compare per
// step.
type interruptChecker struct {
	ctx   context.Context
	count int
}

// check returns the context's cancellation cause once it fires, nil
// otherwise.
func (c *interruptChecker) check() error {
	if c.ctx == nil {
		return nil
	}
	if c.count++; c.count < trialCtxQuantum {
		return nil
	}
	c.count = 0
	select {
	case <-c.ctx.Done():
		return context.Cause(c.ctx)
	default:
		return nil
	}
}

func (o TrialOpts) withDefaults() TrialOpts {
	if o.MaxSteps == 0 {
		o.MaxSteps = 1_000_000
	}
	if o.StepBudget == 0 {
		o.StepBudget = 4 * o.MaxSteps
	}
	return o
}

func (o TrialOpts) golden(prog *asm.Program) (*emu.Machine, error) {
	if o.Golden != nil {
		return o.Golden, nil
	}
	return Golden(prog, o.MaxSteps)
}

// RunUnSyncTrial runs one UnSync functional injection: the flip lands on
// core A after `step` committed instructions. When detected is true
// (the structure is inside UnSync's ROEC — parity/DMR), recovery copies
// the error-free core's state over the erroneous core and both run on.
// When false, the corruption runs silently (the unprotected case,
// quantifying what the detection hardware buys). A faulted pair that
// exceeds the step budget without halting is killed by the watchdog and
// classified OutcomeHang.
func RunUnSyncTrial(prog *asm.Program, step uint64, f Flip, detected bool, opts TrialOpts) (Outcome, error) {
	if err := f.Validate(); err != nil {
		return OutcomeBenign, err
	}
	opts = opts.withDefaults()
	g, err := opts.golden(prog)
	if err != nil {
		return OutcomeBenign, err
	}
	chk := interruptChecker{ctx: opts.Ctx}
	a, b := emu.New(prog), emu.New(prog)
	for i := uint64(0); i < step && !a.Halted; i++ {
		if err := chk.check(); err != nil {
			return OutcomeBenign, err
		}
		if _, err := a.Step(); err != nil {
			return OutcomeBenign, err
		}
		if _, err := b.Step(); err != nil {
			return OutcomeBenign, err
		}
	}
	if a.Halted {
		// The strike point lies past program completion: the output is
		// already architecturally committed and nothing consumes the
		// flipped state, so the upset is benign by construction.
		return OutcomeBenign, nil
	}

	switch f.Space {
	case SpaceCB:
		// The CB entry holds a committed store in flight; run lockstep
		// until core A commits its next store, then flip the stored
		// word behind its back. Detection (hypothetical CB parity)
		// repairs the word from the partner's clean memory.
		for injected, steps := false, uint64(0); !injected && !a.Halted && steps < opts.StepBudget; steps++ {
			if err := chk.check(); err != nil {
				return OutcomeBenign, err
			}
			ca, err := a.Step()
			if err != nil {
				return OutcomeUnrecoverable, nil
			}
			if _, err := b.Step(); err != nil {
				return OutcomeUnrecoverable, nil
			}
			if ca.Inst.Class() == isa.ClassStore {
				w := ca.Inst.Op.MemWidth()
				bit := uint64(f.Bit) % uint64(8*w)
				a.Mem.Write(ca.Addr, a.Mem.Read(ca.Addr, w)^1<<bit, w)
				if detected {
					a.Mem.Write(ca.Addr, b.Mem.Read(ca.Addr, w), w)
				}
				injected = true
			}
		}
	case SpaceMem:
		f.Apply(a)
		if detected {
			// Parity flags the word on its next read; the line is
			// refetched — functionally, repaired from the partner's
			// clean copy (write-through memory below the L1 agrees).
			a.Mem.Write(f.Addr, b.Mem.Read(f.Addr, 8), 8)
		}
	default:
		f.Apply(a)
		if detected {
			// Parity/DMR flags the erroneous element; the EIH stalls
			// both cores and core B's architectural state is copied
			// onto A ("always forward execution" — B resumes exactly
			// where it stopped, A is forwarded to B's position).
			a.Restore(b.Snapshot())
		}
	}

	for (!a.Halted || !b.Halted) && a.InstCount <= g.InstCount+opts.StepBudget {
		if err := chk.check(); err != nil {
			return OutcomeBenign, err
		}
		if _, err := a.Step(); err != nil {
			// A corrupted PC can leave the text section: detected by
			// the fetch fault. Without detection hardware this is
			// still an unrecoverable crash.
			return OutcomeUnrecoverable, nil
		}
		if _, err := b.Step(); err != nil {
			return OutcomeUnrecoverable, nil
		}
	}
	if !a.Halted || !b.Halted {
		return OutcomeHang, nil
	}

	okA := sameOutputAs(a, g.Output)
	okB := sameOutputAs(b, g.Output)
	switch {
	case okA && okB && detected:
		return OutcomeRecovered, nil
	case okA && okB:
		return OutcomeBenign, nil
	default:
		return OutcomeSDC, nil
	}
}

// UnSyncTrial is the legacy fixed-budget entry point: the watchdog
// budget equals maxSteps and a hang is folded into unrecoverable, the
// pre-watchdog classification.
func UnSyncTrial(prog *asm.Program, step uint64, f Flip, detected bool, maxSteps uint64) (Outcome, error) {
	o, err := RunUnSyncTrial(prog, step, f, detected, TrialOpts{MaxSteps: maxSteps, StepBudget: maxSteps})
	if o == OutcomeHang {
		o = OutcomeUnrecoverable
	}
	return o, err
}

// maxRollbacks bounds Reunion's rollback retries before a fault is
// declared detected-but-unrecoverable.
const maxRollbacks = 5

// RunReunionTrial runs one Reunion functional injection. When transient
// is true the flip models an in-flight error: it corrupts the result of
// the instruction committed at `step` (register value and fingerprint
// contribution — or, for SpaceCB, the store datum in flight) but not
// the underlying storage, so rollback re-executes it cleanly. When
// false the flip is a persistent state upset (a struck ARF cell or
// memory word): rollback restores the last verified window but the cell
// remains flipped, so a consumed value mismatches again and again. A
// pair that exceeds the step budget without halting is killed by the
// watchdog and classified OutcomeHang.
func RunReunionTrial(prog *asm.Program, step uint64, f Flip, transient bool, fi int, opts TrialOpts) (Outcome, error) {
	// A transient strike corrupts whatever result is in flight at the
	// strike point — the flip's site fields are ignored, only Bit
	// matters — so full site validation applies to persistent upsets
	// and the in-flight store (CB) case only.
	if !transient || f.Space == SpaceCB {
		if err := f.Validate(); err != nil {
			return OutcomeBenign, err
		}
	}
	if fi < 1 {
		fi = 10
	}
	opts = opts.withDefaults()
	g, err := opts.golden(prog)
	if err != nil {
		return OutcomeBenign, err
	}
	chk := interruptChecker{ctx: opts.Ctx}

	a, b := emu.New(prog), emu.New(prog)

	type checkpoint struct {
		sa, sb   emu.ArchState
		memA     *emu.Memory
		memB     *emu.Memory
		outA     int
		outB     int
		steps    uint64
		injected bool // has the flip already been applied before this point?
	}
	save := func(steps uint64, injected bool) checkpoint {
		return checkpoint{
			sa: a.Snapshot(), sb: b.Snapshot(),
			memA: a.Mem.Clone(), memB: b.Mem.Clone(),
			outA: len(a.Output), outB: len(b.Output),
			steps: steps, injected: injected,
		}
	}
	cp := save(0, false)

	var crcA, crcB uint16
	var windowCount int
	var rollbacks int
	steps := uint64(0)
	injected := false

	for (!a.Halted || !b.Halted) && steps < opts.StepBudget {
		if err := chk.check(); err != nil {
			return OutcomeBenign, err
		}
		ca, err := a.Step()
		if err != nil {
			return OutcomeUnrecoverable, nil
		}
		cb, err := b.Step()
		if err != nil {
			return OutcomeUnrecoverable, nil
		}
		steps++

		if transient && !injected && steps >= step+1 {
			if f.Space == SpaceCB {
				// Corrupt the first store at or after the strike point
				// in flight: the datum lands flipped in memory and in
				// the fingerprint, but no register cell is struck —
				// rollback re-executes the store cleanly.
				if ca.Inst.Class() == isa.ClassStore {
					w := ca.Inst.Op.MemWidth()
					bit := uint64(f.Bit) % uint64(8*w)
					a.Mem.Write(ca.Addr, a.Mem.Read(ca.Addr, w)^1<<bit, w)
					ca.Data ^= 1 << bit
					injected = true
				}
			} else if d := ca.Inst.DestReg(); d >= 0 {
				// Corrupt the in-flight result of the first
				// register-writing instruction at or after the strike
				// point: its destination register and its contribution
				// to the fingerprint.
				if d < isa.NumRegs {
					a.Regs[d] ^= 1 << (f.Bit % 64)
				} else {
					a.FRegs[d-isa.NumRegs] ^= 1 << (f.Bit % 64)
				}
				ca.Data ^= 1 << (f.Bit % 64)
				injected = true
			}
		}
		if !transient && !injected && steps == step+1 {
			f.Apply(a)
			injected = true
		}

		crcA = crc.Update64(crc.Update64(crcA, ca.PC), ca.Data)
		crcB = crc.Update64(crc.Update64(crcB, cb.PC), cb.Data)
		windowCount++

		if windowCount < fi && (!a.Halted || !b.Halted) {
			continue
		}
		// Window boundary: compare fingerprints.
		if crcA == crcB {
			cp = save(steps, injected)
		} else {
			rollbacks++
			if rollbacks > maxRollbacks {
				return OutcomeUnrecoverable, nil
			}
			// Roll both cores back to the last verified boundary. In
			// Reunion the rolled-back window's register writes never
			// reached the ARF, so the architectural state IS the
			// checkpoint state — except that a physical upset struck
			// after the checkpoint persists in its cell (Reunion keeps
			// no ARF checkpoint to scrub it). A checkpoint taken after
			// the strike already contains the corrupted cell.
			a.Restore(cp.sa)
			b.Restore(cp.sb)
			a.Mem = cp.memA.Clone()
			b.Mem = cp.memB.Clone()
			a.Output = a.Output[:cp.outA]
			b.Output = b.Output[:cp.outB]
			a.Halted, b.Halted = false, false
			steps = cp.steps
			if !transient && !cp.injected {
				f.Apply(a)
			}
			// The strike happened in wall-clock time; re-execution is
			// later, so a transient is never re-injected.
			injected = true
		}
		crcA, crcB = 0, 0
		windowCount = 0
	}

	if !a.Halted || !b.Halted {
		return OutcomeHang, nil
	}
	okA := sameOutputAs(a, g.Output)
	okB := sameOutputAs(b, g.Output)
	switch {
	case okA && okB && rollbacks > 0:
		return OutcomeRecovered, nil
	case okA && okB:
		return OutcomeBenign, nil
	default:
		return OutcomeSDC, nil
	}
}

// ReunionTrial is the legacy fixed-budget entry point: the watchdog
// budget equals maxSteps*4 and a hang is folded into unrecoverable, the
// pre-watchdog classification.
func ReunionTrial(prog *asm.Program, step uint64, f Flip, transient bool, fi int, maxSteps uint64) (Outcome, error) {
	o, err := RunReunionTrial(prog, step, f, transient, fi,
		TrialOpts{MaxSteps: maxSteps, StepBudget: maxSteps * 4})
	if o == OutcomeHang {
		o = OutcomeUnrecoverable
	}
	return o, err
}

// CampaignResult aggregates injection outcomes.
type CampaignResult struct {
	Trials        int
	Benign        int
	Recovered     int
	Unrecoverable int
	SDC           int
	Hangs         int
}

// Add tallies one outcome.
func (r *CampaignResult) Add(o Outcome) {
	r.Trials++
	switch o {
	case OutcomeBenign:
		r.Benign++
	case OutcomeRecovered:
		r.Recovered++
	case OutcomeUnrecoverable:
		r.Unrecoverable++
	case OutcomeSDC:
		r.SDC++
	case OutcomeHang:
		r.Hangs++
	}
}

// CorrectRate returns the fraction of trials that finished with correct
// output (benign or recovered).
func (r CampaignResult) CorrectRate() float64 {
	if r.Trials == 0 {
		return 0
	}
	return float64(r.Benign+r.Recovered) / float64(r.Trials)
}
