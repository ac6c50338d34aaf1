// Package unsync is a library-level reproduction of "UnSync: A Soft
// Error Resilient Redundant Multicore Architecture" (Jeyapaul,
// Hong, Rhisheekesan, Shrivastava, Lee — ICPP 2011).
//
// It bundles:
//
//   - a cycle-accurate out-of-order CMP timing model (Table I machine);
//   - the UnSync redundant core-pair architecture (Communication
//     Buffer, EIH, parity/DMR detection, always-forward recovery);
//   - the Reunion comparison baseline (CRC-16 fingerprints, CHECK Stage
//     Buffer, serializing-instruction synchronization, rollback);
//   - synthetic SPEC2000/MiBench workload profiles and a functional
//     MIPS-like emulator with an assembler;
//   - a synthesis-calibrated hardware area/power model (Tables II/III);
//   - fault-injection campaigns and region-of-error-coverage analysis;
//   - experiment drivers regenerating every table and figure of the
//     paper's evaluation.
//
// # Quick start
//
//	cfg := unsync.DefaultRunConfig()
//	base, _ := unsync.Run(unsync.SchemeBaseline, cfg, "bzip2")
//	us, _ := unsync.Run(unsync.SchemeUnSync, cfg, "bzip2")
//	re, _ := unsync.Run(unsync.SchemeReunion, cfg, "bzip2")
//	tm, _ := unsync.Run(unsync.SchemeTMR, cfg, "bzip2")
//	fmt.Printf("IPC: baseline %.2f, unsync %.2f, reunion %.2f, tmr %.2f\n",
//		base.IPC, us.IPC, re.IPC, tm.IPC)
//
// The experiment drivers live behind Fig4, Fig5, Fig6, SERSweep, ROEC,
// TableI, TableII and TableIII; the cmd/unsync-bench tool runs them all.
package unsync

import (
	"context"
	"fmt"

	"github.com/cmlasu/unsync/internal/cmp"
	unsynccore "github.com/cmlasu/unsync/internal/core"
	"github.com/cmlasu/unsync/internal/mem"
	"github.com/cmlasu/unsync/internal/pipeline"
	"github.com/cmlasu/unsync/internal/reunion"
	"github.com/cmlasu/unsync/internal/tmr"
	"github.com/cmlasu/unsync/internal/trace"
)

// Scheme names an architecture: SchemeBaseline, SchemeUnSync,
// SchemeReunion or SchemeTMR. Schemes() lists what is runnable.
type Scheme = cmp.Scheme

// Architecture schemes.
const (
	SchemeBaseline = cmp.Baseline
	SchemeUnSync   = cmp.UnSync
	SchemeReunion  = cmp.Reunion
	SchemeTMR      = cmp.TMR
)

// Schemes returns every runnable scheme name, sorted.
func Schemes() []Scheme { return cmp.Schemes() }

// FaultPlan configures the Poisson soft-error process of an injected
// run (see RunWithFaults). The zero value injects nothing.
type FaultPlan = cmp.FaultPlan

// RunConfig bundles every knob of a simulation run: the core pipeline,
// the memory hierarchy, the two schemes' parameters, and the
// warmup/measurement windows.
type RunConfig = cmp.RunConfig

// Result is the outcome of one simulation run.
type Result = cmp.Result

// CoreConfig configures the out-of-order core (Table I defaults via
// DefaultCoreConfig).
type CoreConfig = pipeline.Config

// MemConfig configures the cache hierarchy (Table I defaults via
// DefaultMemConfig).
type MemConfig = mem.Config

// UnSyncConfig holds the UnSync-specific parameters (Communication
// Buffer geometry and the recovery cost model).
type UnSyncConfig = unsynccore.Config

// ReunionConfig holds the Reunion parameters (fingerprint interval,
// comparison latency, CHECK Stage Buffer size).
type ReunionConfig = reunion.Config

// Profile describes a synthetic benchmark workload.
type Profile = trace.Profile

// UnSyncPair is a live UnSync redundant core-pair for custom
// simulations (see NewUnSyncPair).
type UnSyncPair = unsynccore.Pair

// ReunionPair is a live Reunion redundant core-pair.
type ReunionPair = reunion.Pair

// DefaultRunConfig returns the paper's operating point: the Table I
// machine, FI=10 Reunion fingerprints, a 2 KB Communication Buffer, a
// 50k-instruction warmup and a 200k-instruction measurement window.
func DefaultRunConfig() RunConfig { return cmp.DefaultRunConfig() }

// DefaultCoreConfig returns the Table I core.
func DefaultCoreConfig() CoreConfig { return pipeline.DefaultConfig() }

// DefaultMemConfig returns the Table I memory hierarchy.
func DefaultMemConfig() MemConfig { return mem.DefaultConfig() }

// Benchmarks returns all bundled workload profiles (12 SPEC2000 +
// 8 MiBench), sorted by suite and name.
func Benchmarks() []Profile { return trace.Benchmarks() }

// BenchmarkByName returns the named workload profile.
func BenchmarkByName(name string) (Profile, bool) { return trace.ByName(name) }

// Run executes the named benchmark on the selected scheme and returns
// the measurement-window result.
func Run(s Scheme, rc RunConfig, benchmark string) (Result, error) {
	return RunContext(context.Background(), s, rc, benchmark)
}

// RunContext is Run under a context: cancelling ctx abandons the
// simulation within one quantum of engine iterations (a few thousand
// steps, each after a skip over quiet cycles) and returns the
// cancellation cause instead of a result.
func RunContext(ctx context.Context, s Scheme, rc RunConfig, benchmark string) (Result, error) {
	p, ok := trace.ByName(benchmark)
	if !ok {
		return Result{}, fmt.Errorf("unsync: unknown benchmark %q (see Benchmarks())", benchmark)
	}
	return cmp.RunContext(ctx, s, rc, p)
}

// RunProfile executes a custom workload profile on the selected scheme.
func RunProfile(s Scheme, rc RunConfig, p Profile) (Result, error) {
	return cmp.Run(s, rc, p)
}

// RunProfileContext is RunProfile under a context (see RunContext).
func RunProfileContext(ctx context.Context, s Scheme, rc RunConfig, p Profile) (Result, error) {
	return cmp.RunContext(ctx, s, rc, p)
}

// RunWithFaults executes the named benchmark on the selected scheme
// under a Poisson soft-error process: each arrival strikes a random
// replica and exercises the scheme's own detection and recovery
// mechanism (UnSync stalls the pair for an EIH recovery, Reunion rolls
// back a fingerprint window, TMR resynchronizes the struck core under
// quorum masking). The unprotected baseline rejects injected runs.
func RunWithFaults(s Scheme, rc RunConfig, benchmark string, plan FaultPlan) (Result, error) {
	return RunWithFaultsContext(context.Background(), s, rc, benchmark, plan)
}

// RunWithFaultsContext is RunWithFaults under a context (see
// RunContext for the cancellation contract).
func RunWithFaultsContext(ctx context.Context, s Scheme, rc RunConfig, benchmark string, plan FaultPlan) (Result, error) {
	p, ok := trace.ByName(benchmark)
	if !ok {
		return Result{}, fmt.Errorf("unsync: unknown benchmark %q (see Benchmarks())", benchmark)
	}
	return cmp.RunInjectedContext(ctx, s, rc, p, plan)
}

// Overhead returns the percentage slowdown of res relative to base.
func Overhead(base, res Result) float64 { return cmp.Overhead(base, res) }

// NewUnSyncPair builds a live UnSync core-pair running the given
// benchmark for at most n instructions, for custom cycle-by-cycle
// studies (fault scheduling, occupancy probes). Both cores replay the
// identical instruction stream.
func NewUnSyncPair(rc RunConfig, benchmark string, n uint64) (*UnSyncPair, error) {
	if err := rc.Validate(); err != nil {
		return nil, err
	}
	p, ok := trace.ByName(benchmark)
	if !ok {
		return nil, fmt.Errorf("unsync: unknown benchmark %q", benchmark)
	}
	return unsynccore.NewPair(rc.Core, rc.Mem, rc.UnSync,
		trace.NewLimit(trace.NewGenerator(p), n),
		trace.NewLimit(trace.NewGenerator(p), n)), nil
}

// NewReunionPair builds a live Reunion core-pair running the given
// benchmark for at most n instructions.
func NewReunionPair(rc RunConfig, benchmark string, n uint64) (*ReunionPair, error) {
	if err := rc.Validate(); err != nil {
		return nil, err
	}
	p, ok := trace.ByName(benchmark)
	if !ok {
		return nil, fmt.Errorf("unsync: unknown benchmark %q", benchmark)
	}
	return reunion.NewPair(rc.Core, rc.Mem, rc.Reunion,
		trace.NewLimit(trace.NewGenerator(p), n),
		trace.NewLimit(trace.NewGenerator(p), n)), nil
}

// TMRTriple is a live triple-modular-redundant core-triple (the §VIII
// future-work extension: majority voting masks errors without stalling
// the quorum).
type TMRTriple = tmr.Triple

// TMRConfig holds the triple's parameters.
type TMRConfig = tmr.Config

// DefaultTMRConfig returns the triple's default design point.
func DefaultTMRConfig() TMRConfig { return tmr.DefaultConfig() }

// NewTMRTriple builds a live TMR triple running the given benchmark for
// at most n instructions.
func NewTMRTriple(rc RunConfig, cfg TMRConfig, benchmark string, n uint64) (*TMRTriple, error) {
	if err := rc.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p, ok := trace.ByName(benchmark)
	if !ok {
		return nil, fmt.Errorf("unsync: unknown benchmark %q", benchmark)
	}
	var streams [3]trace.Stream
	for i := range streams {
		streams[i] = trace.NewLimit(trace.NewGenerator(p), n)
	}
	return tmr.NewTriple(rc.Core, rc.Mem, cfg, streams), nil
}

// Stream is a source of dynamic instructions for custom chips.
type Stream = trace.Stream

// StreamFactory produces fresh streams; a pair consumes two identical
// ones.
type StreamFactory = cmp.StreamFactory

// Chip is a full CMP: redundant pairs and optional unprotected solo
// cores sharing the L2 and L1↔L2 bus.
type Chip = cmp.Chip

// BenchmarkStream returns a StreamFactory for the named workload,
// truncated to n instructions.
func BenchmarkStream(benchmark string, n uint64) (StreamFactory, error) {
	p, ok := trace.ByName(benchmark)
	if !ok {
		return nil, fmt.Errorf("unsync: unknown benchmark %q", benchmark)
	}
	return func() Stream { return trace.NewLimit(trace.NewGenerator(p), n) }, nil
}

// NewChip builds a chip with one redundant pair per workload (the
// Table I machine is two UnSync pairs).
func NewChip(s Scheme, rc RunConfig, pairs []StreamFactory) (*Chip, error) {
	return cmp.NewChip(s, rc, pairs)
}

// NewMixedChip builds a chip mixing redundant pairs with unprotected
// solo cores — the §I configurability of reliability vs throughput.
func NewMixedChip(s Scheme, rc RunConfig, pairs, solos []StreamFactory) (*Chip, error) {
	return cmp.NewMixedChip(s, rc, pairs, solos)
}
