// Command unsync-sim runs one benchmark on one architecture and prints
// detailed statistics.
//
// Usage:
//
//	unsync-sim [flags]
//
//	-bench string    benchmark name (default "bzip2"); "list" lists all
//	-scheme string   baseline, unsync, reunion or tmr (default "unsync")
//	-insts uint      measured instructions (default 200000)
//	-warmup uint     warmup instructions (default 50000)
//	-cb int          UnSync/TMR Communication Buffer entries (default 170)
//	-fi int          Reunion fingerprint interval (default 10)
//	-cmplat uint     Reunion comparison latency (default 6)
//	-ser float       soft-error rate in errors/instruction (default 0: none)
//	-seed uint       Poisson arrival seed for -ser (default 1)
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	unsync "github.com/cmlasu/unsync"
)

func schemeNames() string {
	var names []string
	for _, s := range unsync.Schemes() {
		names = append(names, s.String())
	}
	return strings.Join(names, " | ")
}

func main() {
	bench := flag.String("bench", "bzip2", "benchmark name, or 'list'")
	scheme := flag.String("scheme", "unsync", schemeNames())
	insts := flag.Uint64("insts", 200_000, "measured instructions")
	warmup := flag.Uint64("warmup", 50_000, "warmup instructions")
	cb := flag.Int("cb", 0, "UnSync/TMR CB entries (0 = default)")
	fi := flag.Int("fi", 0, "Reunion fingerprint interval (0 = default)")
	cmplat := flag.Uint64("cmplat", 0, "Reunion comparison latency (0 = default)")
	ser := flag.Float64("ser", 0, "soft-error rate, errors/instruction (0 = error-free)")
	seed := flag.Uint64("seed", 1, "Poisson arrival seed for -ser")
	flag.Parse()

	if *bench == "list" {
		for _, p := range unsync.Benchmarks() {
			fmt.Printf("%-10s %-9s serializing=%.2f%% ws=%dKB\n",
				p.Name, p.Suite, 100*p.Mix.SerializingFrac(), p.WorkingSet>>10)
		}
		return
	}

	// An unknown scheme name is rejected by Run with the valid names
	// in the error.
	s := unsync.Scheme(*scheme)

	rc := unsync.DefaultRunConfig()
	rc.MeasureInsts = *insts
	rc.WarmupInsts = *warmup
	if *cb > 0 {
		rc.UnSync.CBEntries = *cb
		rc.TMR.CBEntries = *cb
	}
	if *fi > 0 {
		rc.Reunion.FI = *fi
	}
	if *cmplat > 0 {
		rc.Reunion.CompareLatency = *cmplat
	}

	var plan unsync.FaultPlan
	if *ser > 0 {
		plan = unsync.FaultPlan{SER: unsync.SER{PerInst: *ser}, Seed: *seed}
	}
	res, err := unsync.RunWithFaults(s, rc, *bench, plan)
	if err != nil {
		fmt.Fprintf(os.Stderr, "unsync-sim: %v\n", err)
		os.Exit(1)
	}

	fmt.Printf("benchmark:   %s (%s)\n", res.Benchmark, res.Scheme)
	if *ser > 0 {
		fmt.Printf("soft errors: %s errors/instruction (seed %d)\n",
			fmt.Sprintf("%.2e", *ser), *seed)
	}
	fmt.Printf("instructions %d over %d cycles\n", res.Insts, res.Cycles)
	fmt.Printf("IPC:         %.4f\n", res.IPC)
	c := res.Core
	fmt.Printf("loads/stores %d / %d\n", c.Loads, c.Stores)
	fmt.Printf("branches:    %d (%d mispredicted)\n", c.Branches, c.Mispredicts)
	fmt.Printf("serializing: %d\n", c.Serializing)
	fmt.Printf("commit stalls: empty=%d exec=%d scheme-gate=%d\n",
		c.StallEmpty, c.StallExec, c.StallGate)
	fmt.Printf("dispatch stalls: rob=%d iq=%d lsq=%d\n",
		c.DispatchStallROB, c.DispatchStallIQ, c.DispatchStallLSQ)
	fmt.Printf("ROB occupancy: mean %.1f peak %d\n", c.ROBOcc.Mean(), c.ROBOcc.Peak())

	if st := res.UnSyncStats; st != nil {
		fmt.Printf("CB: drained=%d, full-stall cycles=%d/%d, occupancy mean %.1f\n",
			st.Drained, st.CBFullStall[0], st.CBFullStall[1], st.CBOcc[0].Mean())
		fmt.Printf("recoveries=%d (%d stall cycles)\n", st.Recoveries, st.RecoveryCycles)
	}
	if st := res.ReunionStats; st != nil {
		fmt.Printf("fingerprints=%d mismatches=%d, CSB-full stalls=%d, serialize stalls=%d\n",
			st.Fingerprints, st.Mismatches, st.CSBFullStall[0], st.SerializeStall[0])
		fmt.Printf("CSB occupancy mean %.1f\n", st.CSBOcc[0].Mean())
	}
	if st := res.TMRStats; st != nil {
		fmt.Printf("TMR: voted-drains=%d maskings=%d resyncs=%d (%d resync cycles)\n",
			st.Drained, st.Maskings, st.Resyncs, st.ResyncCycles)
		fmt.Printf("CB full-stall cycles: %d/%d/%d, occupancy mean %.1f\n",
			st.CBFullStall[0], st.CBFullStall[1], st.CBFullStall[2], st.CBOcc[0].Mean())
	}
}
