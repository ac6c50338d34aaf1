package unsync

import (
	"context"

	"github.com/cmlasu/unsync/internal/asm"
	"github.com/cmlasu/unsync/internal/campaign"
	"github.com/cmlasu/unsync/internal/emu"
	"github.com/cmlasu/unsync/internal/fault"
)

// This file re-exports the functional layer (assembler, emulator) and
// the fault-injection campaigns, so downstream users can run real
// programs on the redundant schemes and verify recovery end to end.

// Program is an assembled program (text + data sections).
type Program = asm.Program

// Machine is the functional emulator state for one core.
type Machine = emu.Machine

// Assemble assembles ISA source text (see internal/asm for the syntax).
func Assemble(src string) (*Program, error) { return asm.Assemble(src) }

// NewMachine loads a program into a fresh functional core.
func NewMachine(p *Program) *Machine { return emu.New(p) }

// SER is a soft-error-rate model: errors per committed instruction,
// driving the Poisson arrival process of injected runs (RunWithFaults).
type SER = fault.SER

// Fault-injection surface.
type (
	// Flip is one single-bit architectural upset.
	Flip = fault.Flip
	// Space is a fault-site space (CampaignConfig.Spaces).
	Space = fault.Space
	// Outcome classifies an injection trial (benign / recovered /
	// unrecoverable / silent corruption).
	Outcome = fault.Outcome
	// CampaignResult tallies injection outcomes.
	CampaignResult = fault.CampaignResult
	// Coverage maps structures to their detection mechanism.
	Coverage = fault.Coverage
)

// Injection spaces and outcomes.
const (
	SpaceIntReg = fault.SpaceIntReg
	SpaceFPReg  = fault.SpaceFPReg
	SpacePC     = fault.SpacePC
	SpaceMem    = fault.SpaceMem
	SpaceCB     = fault.SpaceCB

	OutcomeBenign        = fault.OutcomeBenign
	OutcomeRecovered     = fault.OutcomeRecovered
	OutcomeUnrecoverable = fault.OutcomeUnrecoverable
	OutcomeSDC           = fault.OutcomeSDC
	OutcomeHang          = fault.OutcomeHang
)

// ErrInvalidFlip is returned (wrapped) when a Flip fails validation —
// out-of-range register, the hardwired r0, or an out-of-range bit.
var ErrInvalidFlip = fault.ErrInvalidFlip

// UnSyncFaultTrial injects one upset into an UnSync pair running the
// program and reports the outcome (§VI-D semantics: local detection,
// copy-from-partner recovery, always-forward execution).
func UnSyncFaultTrial(p *Program, step uint64, f Flip, detected bool, maxSteps uint64) (Outcome, error) {
	return fault.UnSyncTrial(p, step, f, detected, maxSteps)
}

// ReunionFaultTrial injects one upset into a Reunion pair (fingerprint
// detection, rollback recovery). transient selects an in-flight upset
// (inside Reunion's ROEC) versus a persistent register-cell upset
// (outside it).
func ReunionFaultTrial(p *Program, step uint64, f Flip, transient bool, fi int, maxSteps uint64) (Outcome, error) {
	return fault.ReunionTrial(p, step, f, transient, fi, maxSteps)
}

// Campaign-engine surface (internal/campaign): resilient, parallel,
// checkpointed injection campaigns with coverage-driven detection.
type (
	// CampaignConfig configures a resilient injection campaign: scheme,
	// trial count, seed, fault spaces, coverage map, worker pool, step
	// budget, JSONL checkpoint/resume and Wilson early stopping.
	CampaignConfig = campaign.Spec
	// CampaignOutcome is the aggregated campaign result: per-outcome
	// tallies overall and per space, plus the SDC rate with its Wilson
	// confidence interval.
	CampaignOutcome = campaign.Result
)

// CampaignConfig.Scheme takes the plain scheme name — "unsync" or
// "reunion", i.e. string(SchemeUnSync) / string(SchemeReunion).

// ErrCampaignInterrupted reports a campaign stopped by
// CampaignConfig.StopAfter; the partial result is still returned.
var ErrCampaignInterrupted = campaign.ErrInterrupted

// RunCampaign runs a resilient fault-injection campaign: trials execute
// on a worker pool with per-trial step-budget watchdogs and panic
// isolation, detection is resolved per trial from the coverage map,
// completed trials are journaled to the checkpoint for deterministic
// resume, and a partial result is always returned alongside joined
// per-trial errors.
func RunCampaign(p *Program, cfg CampaignConfig) (CampaignOutcome, error) {
	return campaign.Run(p, cfg)
}

// RunCampaignContext is RunCampaign under a context: cancelling ctx
// stops scheduling new trials within one trial quantum, flushes every
// completed trial to the checkpoint journal, and returns the partial
// result with ErrCampaignInterrupted (and the cancellation cause)
// joined into the error — a later run with the same CampaignConfig
// resumes from the journal bit-identically.
func RunCampaignContext(ctx context.Context, p *Program, cfg CampaignConfig) (CampaignOutcome, error) {
	return campaign.RunContext(ctx, p, cfg)
}

// UnSyncCoverage returns UnSync's detection assignment (parity on
// storage, DMR on per-cycle sequential elements).
func UnSyncCoverage() Coverage { return fault.UnSyncCoverage() }

// ReunionCoverage returns Reunion's region of error coverage
// (pre-commit pipeline state only).
func ReunionCoverage() Coverage { return fault.ReunionCoverage() }

// BreakEvenSER solves for the error rate at which two schemes'
// throughput curves cross (§VI-C's hypothetical analysis).
func BreakEvenSER(ipc1, costPerError1, ipc2, costPerError2 float64) float64 {
	return fault.BreakEven(ipc1, costPerError1, ipc2, costPerError2)
}
