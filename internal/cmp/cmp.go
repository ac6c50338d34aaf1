// Package cmp assembles full chip configurations and runs workloads on
// the redundancy organizations the paper compares and extends:
//
//   - Baseline: an unprotected CMP core (write-back L1, no redundancy);
//   - UnSync: redundant core-pairs with Communication Buffers
//     (internal/core);
//   - Reunion: redundant core-pairs with fingerprint comparison
//     (internal/reunion);
//   - TMR: the §VIII triple-modular-redundant extension with majority
//     voting (internal/tmr).
//
// The measurement discipline every experiment uses — a warmup phase
// (caches and predictors settle), a statistics reset, and a
// fixed-length measurement window over an identical instruction
// stream, optionally under a Poisson soft-error process — lives in ONE
// place: the Drive engine over the Machine interface (engine.go).
// Schemes are selected by name: builderFor maps each of the four
// built-in names to its Machine builder, and every experiment, sweep
// and tool runs whatever it returns.
package cmp

import (
	"fmt"

	unsync "github.com/cmlasu/unsync/internal/core"
	"github.com/cmlasu/unsync/internal/events"
	"github.com/cmlasu/unsync/internal/mem"
	"github.com/cmlasu/unsync/internal/pipeline"
	"github.com/cmlasu/unsync/internal/reunion"
	"github.com/cmlasu/unsync/internal/tmr"
	"github.com/cmlasu/unsync/internal/trace"
)

// Scheme names one of the four built-in architectures.
type Scheme string

// Built-in schemes.
const (
	Baseline Scheme = "baseline"
	UnSync   Scheme = "unsync"
	Reunion  Scheme = "reunion"
	TMR      Scheme = "tmr"
)

// String names the scheme.
func (s Scheme) String() string { return string(s) }

// RunConfig bundles every knob of a simulation run.
type RunConfig struct {
	Core    pipeline.Config
	Mem     mem.Config
	UnSync  unsync.Config
	Reunion reunion.Config
	TMR     tmr.Config

	// WarmupInsts instructions run before statistics are reset;
	// MeasureInsts are then measured. MaxCycles is the safety budget.
	WarmupInsts  uint64
	MeasureInsts uint64
	MaxCycles    uint64

	// Source supplies the workload streams. nil selects
	// GeneratorSource (regenerate per run); experiment suites install
	// a CachedSource so sweeps replay one materialized trace per
	// benchmark instead of re-synthesizing it at every point.
	Source StreamSource
}

// DefaultRunConfig returns the Table I machine with the paper's scheme
// parameters and a measurement window suitable for the figures.
func DefaultRunConfig() RunConfig {
	return RunConfig{
		Core:         pipeline.DefaultConfig(),
		Mem:          mem.DefaultConfig(),
		UnSync:       unsync.DefaultConfig(),
		Reunion:      reunion.DefaultConfig(),
		TMR:          tmr.DefaultConfig(),
		WarmupInsts:  50_000,
		MeasureInsts: 200_000,
		MaxCycles:    500_000_000,
	}
}

// Result is the outcome of one run.
type Result struct {
	Scheme    Scheme
	Benchmark string

	IPC    float64
	Cycles uint64
	Insts  uint64

	Core pipeline.Stats // measurement-window stats of (the first) core

	// Events holds the measurement-window counters of the run under the
	// repository-wide taxonomy (internal/events): core pipeline events
	// (topdown slot buckets included), memory hierarchy events of the
	// first replica plus the shared L2, and the scheme's own counters.
	// Every scheme fills it through the same helpers
	// (collectEvents in engine.go), so consumers never dispatch on the
	// scheme to read a counter.
	Events events.Counts

	// Scheme-specific statistics (nil for the others).
	UnSyncStats  *unsync.PairStats
	ReunionStats *reunion.PairStats
	TMRStats     *tmr.TripleStats
}

// baselineMemConfig strips redundancy-oriented choices: a conventional
// write-back L1 with no protection.
func baselineMemConfig(memCfg mem.Config) mem.Config {
	memCfg.L1D.Policy = mem.WriteBack
	memCfg.L1D.Protect = mem.ProtNone
	memCfg.L1I.Protect = mem.ProtNone
	memCfg.L2.Protect = mem.ProtSECDED
	return memCfg
}

// TotalInsts returns the warmup plus measurement instruction count.
func (rc *RunConfig) TotalInsts() uint64 { return rc.WarmupInsts + rc.MeasureInsts }

// Validate checks every sub-configuration, so that a bad RunConfig
// surfaces as a returned error at the API boundary instead of a panic
// inside a constructor.
func (rc *RunConfig) Validate() error {
	if err := rc.Core.Validate(); err != nil {
		return fmt.Errorf("cmp: core config: %w", err)
	}
	if err := rc.Mem.Validate(); err != nil {
		return fmt.Errorf("cmp: mem config: %w", err)
	}
	if err := rc.UnSync.Validate(); err != nil {
		return fmt.Errorf("cmp: unsync config: %w", err)
	}
	if err := rc.Reunion.Validate(); err != nil {
		return fmt.Errorf("cmp: reunion config: %w", err)
	}
	if err := rc.TMR.Validate(); err != nil {
		return fmt.Errorf("cmp: tmr config: %w", err)
	}
	if rc.MeasureInsts == 0 {
		return fmt.Errorf("cmp: MeasureInsts must be positive")
	}
	if rc.MaxCycles == 0 {
		return fmt.Errorf("cmp: MaxCycles must be positive")
	}
	return nil
}

// validateRun checks the run configuration and the workload profile.
func validateRun(rc *RunConfig, prof *trace.Profile) error {
	if err := rc.Validate(); err != nil {
		return err
	}
	if err := prof.Validate(); err != nil {
		return fmt.Errorf("cmp: %w", err)
	}
	return nil
}

// Overhead returns the percentage slowdown of res relative to base
// (positive = slower than baseline), computed from cycles per
// instruction so differing instruction windows compare fairly.
func Overhead(base, res Result) float64 {
	if base.Insts == 0 || res.Insts == 0 || base.Cycles == 0 {
		return 0
	}
	cpiBase := float64(base.Cycles) / float64(base.Insts)
	cpiRes := float64(res.Cycles) / float64(res.Insts)
	return 100 * (cpiRes - cpiBase) / cpiBase
}
