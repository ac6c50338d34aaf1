package experiments

import (
	"context"

	"github.com/cmlasu/unsync/internal/asm"
	"github.com/cmlasu/unsync/internal/campaign"
	"github.com/cmlasu/unsync/internal/fault"
	"github.com/cmlasu/unsync/internal/report"
)

// roecProgram is the workload for the functional fault-injection
// campaigns: it fills an array, folds it into a checksum with data
// dependences everywhere, and prints the result — so almost every live
// register matters.
const roecProgram = `
	la r10, buf
	li r1, 0        ; checksum
	li r2, 0        ; i
	li r3, 96       ; n
init:
	mul r4, r2, r2
	xori r4, r4, 0x5a
	sw r4, 0(r10)
	addi r10, r10, 4
	addi r2, r2, 1
	blt r2, r3, init
	la r10, buf
	li r2, 0
sum:
	lw r5, 0(r10)
	add r1, r1, r5
	slli r6, r1, 3
	xor r1, r1, r6
	addi r10, r10, 4
	addi r2, r2, 1
	blt r2, r3, sum
	mv r4, r1
	li r2, 1
	syscall
	halt
.data
buf: .space 512
`

// ROECResult is the §VI-D study: the structural coverage comparison and
// the functional verification that each scheme recovers what its region
// of error coverage promises.
type ROECResult struct {
	UnSyncBits  float64
	ReunionBits float64
	TotalBits   float64
	UnSyncFrac  float64
	ReunionFrac float64

	UnSyncCampaign    fault.CampaignResult // parity/DMR-detected upsets
	ReunionTransient  fault.CampaignResult // in-flight upsets (inside ROEC)
	ReunionPersistent fault.CampaignResult // ARF upsets (outside ROEC)
}

// ROEC runs the coverage study with the given number of functional
// injection trials per campaign. The three campaigns draw register and
// PC sites; the coverage map of each decides whether a flip is a
// detected UnSync upset, an in-flight Reunion upset inside its ROEC, or
// a persistent architectural upset outside it.
func ROEC(ctx context.Context, trials int) (ROECResult, error) {
	prog := asm.MustAssemble(roecProgram)

	res := ROECResult{
		UnSyncBits:  fault.ROECBits(fault.UnSyncCoverage()),
		ReunionBits: fault.ROECBits(fault.ReunionCoverage()),
		TotalBits:   fault.TotalBits(),
	}
	res.UnSyncFrac = res.UnSyncBits / res.TotalBits
	res.ReunionFrac = res.ReunionBits / res.TotalBits

	spaces := []fault.Space{fault.SpaceIntReg, fault.SpaceFPReg, fault.SpacePC}
	campaigns := []struct {
		out  *fault.CampaignResult
		spec campaign.Spec
	}{
		{&res.UnSyncCampaign, campaign.Spec{Scheme: campaign.SchemeUnSync, Seed: 101}},
		{&res.ReunionTransient, campaign.Spec{Scheme: campaign.SchemeReunion, Seed: 102,
			Coverage: fault.Coverage{fault.TargetRegFile: fault.DetectFingerprint, fault.TargetPC: fault.DetectFingerprint}}},
		{&res.ReunionPersistent, campaign.Spec{Scheme: campaign.SchemeReunion, Seed: 103,
			Coverage: fault.Coverage{fault.TargetRegFile: fault.DetectNone, fault.TargetPC: fault.DetectNone}}},
	}
	for _, c := range campaigns {
		c.spec.Trials = trials
		c.spec.Spaces = spaces
		r, err := campaign.RunContext(ctx, prog, c.spec)
		*c.out = r.Tally
		if err != nil {
			return res, err
		}
	}
	return res, nil
}

// Render produces the study's table form.
func (r ROECResult) Render() *report.Table {
	t := report.New("ROEC (§VI-D) — region of error coverage and functional recovery",
		"Quantity", "UnSync", "Reunion")
	t.Row("Covered bits", report.F(r.UnSyncBits, 0), report.F(r.ReunionBits, 0))
	t.Row("Coverage fraction", report.F(100*r.UnSyncFrac, 1)+"%", report.F(100*r.ReunionFrac, 1)+"%")

	camp := func(c fault.CampaignResult) string {
		return report.F(100*c.CorrectRate(), 1) + "% correct"
	}
	t.Row("Detected-upset campaign", camp(r.UnSyncCampaign), "")
	t.Row("In-flight upset campaign", "", camp(r.ReunionTransient))
	t.Row("Persistent ARF upset campaign", "", camp(r.ReunionPersistent))
	t.Row("  of which unrecoverable", report.I(uint64(r.UnSyncCampaign.Unrecoverable)),
		report.I(uint64(r.ReunionPersistent.Unrecoverable)))
	t.Note("UnSync covers every sequential block and the L1 (parity/DMR); Reunion's fingerprint covers only pre-commit pipeline state — ARF/TLB upsets are outside its ROEC")
	return t
}

// StructuralTable renders the per-structure detection assignment.
func StructuralTable() *report.Table {
	u := fault.UnSyncCoverage()
	r := fault.ReunionCoverage()
	t := report.New("Per-structure detection assignment",
		"Structure", "Vulnerable bits", "UnSync", "Reunion")
	for tgt := fault.Target(0); tgt < fault.NumTargets; tgt++ {
		t.Row(tgt.String(), report.F(fault.Bits(tgt), 0), u[tgt].String(), r[tgt].String())
	}
	return t
}
