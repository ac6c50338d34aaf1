package cmp

import (
	"math"
	"testing"

	"github.com/cmlasu/unsync/internal/events"
	"github.com/cmlasu/unsync/internal/fault"
	"github.com/cmlasu/unsync/internal/trace"
)

// eventsRC mirrors the simulator microbenchmarks' operating point
// (warmup 2k, measure 20k; see the root bench_test.go) so the identity
// is pinned on the same windows the kernels run.
func eventsRC() RunConfig {
	rc := DefaultRunConfig()
	rc.WarmupInsts = 2_000
	rc.MeasureInsts = 20_000
	return rc
}

// checkAccounting asserts the two invariants the topdown report
// depends on, for one Result:
//
//  1. the per-cause commit-slot counters partition the window's cycles:
//     CommitCycles + StallEmpty + StallExec + StallGate + FrozenCycles == Cycles;
//  2. the derived slot buckets partition the slot capacity exactly, so
//     the topdown fractions sum to 1 (±1e-9).
func checkAccounting(t *testing.T, label string, res Result) {
	t.Helper()
	st := res.Core
	sum := st.CommitCycles + st.StallEmpty + st.StallExec + st.StallGate + st.FrozenCycles
	if sum != st.Cycles {
		t.Errorf("%s: stall accounting broken: commit %d + empty %d + exec %d + gate %d + frozen %d = %d, want Cycles %d",
			label, st.CommitCycles, st.StallEmpty, st.StallExec, st.StallGate, st.FrozenCycles, sum, st.Cycles)
	}

	ev := res.Events
	if len(ev) == 0 {
		t.Fatalf("%s: Result.Events empty", label)
	}
	slotSum := ev[events.TopdownRetiringSlots] + ev[events.TopdownFrontendSlots] +
		ev[events.TopdownBackendSlots] + ev[events.TopdownBadGateSlots]
	if slotSum != ev[events.TopdownSlots] {
		t.Errorf("%s: slot buckets sum to %d, want TOPDOWN.SLOTS %d", label, slotSum, ev[events.TopdownSlots])
	}
	td, ok := events.TopdownOf(ev)
	if !ok {
		t.Fatalf("%s: TopdownOf rejected a measured window", label)
	}
	if fsum := td.Retiring + td.Frontend + td.Backend + td.BadGate; math.Abs(fsum-1.0) > 1e-9 {
		t.Errorf("%s: topdown fractions sum to %.12f, want 1.0 (±1e-9)", label, fsum)
	}

	// Every reported event must be registered, and the headline
	// counters must agree with the Result's own fields.
	for _, name := range ev.Names() {
		if _, ok := events.Lookup(name); !ok {
			t.Errorf("%s: unregistered event %q in Result.Events", label, name)
		}
	}
	if ev[events.Cycles] != res.Cycles {
		t.Errorf("%s: CYCLES event %d != Result.Cycles %d", label, ev[events.Cycles], res.Cycles)
	}
}

// TestStallAccountingIdentity pins, for every registered built-in
// scheme on the microbenchmark kernel workloads (gzip, bzip2), that
// per-cause stall counters partition cycles and the topdown buckets
// partition slots. This is the invariant that makes the `-run events`
// tables trustworthy: a stage that stalls without charging a cause
// breaks it.
func TestStallAccountingIdentity(t *testing.T) {
	rc := eventsRC()
	for _, bench := range []string{"gzip", "bzip2"} {
		prof, ok := trace.ByName(bench)
		if !ok {
			t.Fatalf("no %s profile", bench)
		}
		for _, s := range []Scheme{Baseline, UnSync, Reunion, TMR} {
			res, err := Run(s, rc, prof)
			if err != nil {
				t.Fatalf("%s/%s: %v", s, bench, err)
			}
			checkAccounting(t, string(s)+"/"+bench, res)
		}
	}
}

// TestStallAccountingIdentityUnderInjection stresses the identity
// across the recovery path: UnSync recoveries freeze both cores and
// Restart adjusts the architectural instruction counter, which is
// exactly where a naive retiring-slots computation would underflow.
func TestStallAccountingIdentityUnderInjection(t *testing.T) {
	rc := eventsRC()
	prof, _ := trace.ByName("gzip")
	plan := FaultPlan{SER: fault.SER{PerInst: 1e-3}, Seed: 0xbeef}
	for _, s := range []Scheme{UnSync, Reunion, TMR} {
		res, err := RunInjected(s, rc, prof, plan)
		if err != nil {
			t.Fatalf("%s injected: %v", s, err)
		}
		checkAccounting(t, string(s)+"/injected", res)
		if res.Core.FrozenCycles == 0 && s != TMR {
			t.Errorf("%s injected: no frozen cycles at 1e-3 errors/inst — recovery path not exercised", s)
		}
	}
}

// TestSchemeEventsPresent pins that each scheme's own counters reach
// Result.Events through the shared collection path, and that the
// memory-side events are populated.
func TestSchemeEventsPresent(t *testing.T) {
	rc := eventsRC()
	prof, _ := trace.ByName("gzip")

	base, err := Run(Baseline, rc, prof)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{events.L1DReplacement, events.L2Miss, events.InstRetired} {
		if _, ok := base.Events[name]; !ok {
			t.Errorf("baseline missing %s", name)
		}
	}

	us, err := Run(UnSync, rc, prof)
	if err != nil {
		t.Fatal(err)
	}
	if us.Events[events.CBDrained] == 0 {
		t.Error("unsync: CB.DRAINED is zero over a 20k-inst window")
	}
	if us.Events[events.CBDrained] != us.UnSyncStats.Drained {
		t.Errorf("unsync: CB.DRAINED %d != PairStats.Drained %d",
			us.Events[events.CBDrained], us.UnSyncStats.Drained)
	}

	re, err := Run(Reunion, rc, prof)
	if err != nil {
		t.Fatal(err)
	}
	if re.Events[events.FPClosed] == 0 {
		t.Error("reunion: FP.CLOSED is zero over a 20k-inst window")
	}

	tm, err := Run(TMR, rc, prof)
	if err != nil {
		t.Fatal(err)
	}
	if tm.Events[events.CBDrained] == 0 {
		t.Error("tmr: CB.DRAINED is zero over a 20k-inst window")
	}
}

// TestZeroCycleIPCGuards pins the divide-by-zero audit: every IPC
// surface reports 0 — never NaN — for a machine that ran zero cycles,
// so downstream Events/topdown ratios cannot be poisoned.
func TestZeroCycleIPCGuards(t *testing.T) {
	rc := smallRC()
	prof, _ := trace.ByName("gzip")

	w := func() trace.Stream { return rc.Stream(prof) }
	ch, err := NewMixedChip(UnSync, rc, []StreamFactory{w}, []StreamFactory{w})
	if err != nil {
		t.Fatal(err)
	}
	// Never stepped: zero cycles everywhere.
	if got := ch.PairIPC(0); got != 0 || math.IsNaN(got) {
		t.Errorf("PairIPC on an unstepped chip = %v, want 0", got)
	}
	if got := ch.SoloIPC(0); got != 0 || math.IsNaN(got) {
		t.Errorf("SoloIPC on an unstepped chip = %v, want 0", got)
	}
}
