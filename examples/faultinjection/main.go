// Fault injection: assemble a real program, strike it with single-bit
// upsets, and watch each scheme's recovery machinery work — the §VI-D
// experiment at example scale.
//
// UnSync detects upsets locally (parity/DMR) and copies the healthy
// core's architectural state over the struck core; execution is always
// forward. Reunion detects divergence in its CRC-16 fingerprints and
// rolls back — which heals transient in-flight errors but livelocks on
// a persistently flipped register cell (outside its region of error
// coverage).
package main

import (
	"fmt"
	"log"

	unsync "github.com/cmlasu/unsync"
)

const program = `
	; iterative checksum over a small array
	la r10, buf
	li r1, 0
	li r2, 0
	li r3, 48
fill:
	mul r4, r2, r2
	sw r4, 0(r10)
	addi r10, r10, 4
	addi r2, r2, 1
	blt r2, r3, fill
	la r10, buf
	li r2, 0
fold:
	lw r5, 0(r10)
	add r1, r1, r5
	slli r6, r1, 2
	xor r1, r1, r6
	addi r10, r10, 4
	addi r2, r2, 1
	blt r2, r3, fold
	mv r4, r1
	li r2, 1
	syscall       ; print the checksum
	halt
.data
buf: .space 256
`

func main() {
	prog, err := unsync.Assemble(program)
	if err != nil {
		log.Fatal(err)
	}

	golden := unsync.NewMachine(prog)
	if err := golden.Run(100_000); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("golden checksum: %d (after %d instructions)\n\n",
		golden.Output[0], golden.InstCount)

	flip := unsync.Flip{Space: unsync.SpaceIntReg, Index: 1, Bit: 9} // the live checksum register

	o, err := unsync.UnSyncFaultTrial(prog, 150, flip, true, 100_000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("UnSync, flip r1 bit 9 at instruction 150 (parity detects): %v\n", o)

	o, err = unsync.UnSyncFaultTrial(prog, 150, flip, false, 100_000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("same flip with detection hardware removed:              %v\n\n", o)

	o, err = unsync.ReunionFaultTrial(prog, 150, flip, true, 10, 100_000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Reunion, transient in-flight upset (inside ROEC):        %v\n", o)

	o, err = unsync.ReunionFaultTrial(prog, 150, flip, false, 10, 100_000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Reunion, persistent ARF cell upset (outside ROEC):       %v\n\n", o)

	// Campaign view: integer register-file upsets under each scheme's
	// own coverage map — parity for UnSync, none for Reunion (its ARF is
	// outside the ROEC, so a flipped cell persists across rollbacks).
	regs := []unsync.Space{unsync.SpaceIntReg}
	us, err := unsync.RunCampaign(prog, unsync.CampaignConfig{
		Scheme: "unsync", Trials: 30, Seed: 7, MaxSteps: 100_000, Spaces: regs})
	if err != nil {
		log.Fatal(err)
	}
	rp, err := unsync.RunCampaign(prog, unsync.CampaignConfig{
		Scheme: "reunion", Trials: 30, Seed: 7, MaxSteps: 100_000, Spaces: regs})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("30-trial campaigns: UnSync %.0f%% correct, Reunion (persistent) %.0f%% correct\n",
		100*us.Tally.CorrectRate(), 100*rp.Tally.CorrectRate())
	fmt.Printf("Reunion unrecoverable trials: %d — the ARF is outside its coverage\n",
		rp.Tally.Unrecoverable)
}
