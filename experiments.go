package unsync

import (
	"context"

	"github.com/cmlasu/unsync/internal/dies"
	"github.com/cmlasu/unsync/internal/experiments"
	"github.com/cmlasu/unsync/internal/hwmodel"
	"github.com/cmlasu/unsync/internal/report"
	"github.com/cmlasu/unsync/internal/sweep"
)

// This file re-exports the experiment drivers: one entry point per
// table and figure of the paper's evaluation section.

// Options configures a whole experiment run (machine configuration,
// benchmark set, worker parallelism).
type Options = experiments.Options

// Table is a rendered result table (Text/CSV/Markdown methods).
type Table = report.Table

// DefaultOptions returns the full-fidelity experiment configuration.
func DefaultOptions() Options { return experiments.DefaultOptions() }

// QuickOptions returns a scaled-down configuration for smoke runs.
func QuickOptions() Options { return experiments.QuickOptions() }

// TableI renders the simulated baseline CMP parameters (paper Table I).
func TableI() *Table { return experiments.TableI() }

// TableIIResult carries the synthesis-model outputs and headline deltas.
type TableIIResult = experiments.TableIIResult

// TableII computes the hardware overhead comparison (paper Table II).
func TableII() (TableIIResult, *Table) { return experiments.TableII() }

// DieProjection is one row of the Table III many-core projection.
type DieProjection = dies.Projection

// TableIII projects many-core die sizes under both schemes (paper
// Table III).
func TableIII() ([]DieProjection, *Table) { return experiments.TableIII() }

// Fig4Result is the serializing-instruction overhead study.
type Fig4Result = experiments.Fig4Result

// Fig4 measures per-benchmark overheads of UnSync and Reunion over the
// baseline (paper Figure 4).
func Fig4(o Options) (Fig4Result, error) { return experiments.Fig4(context.Background(), o) }

// Fig4Context is Fig4 under a context: cancelling ctx abandons the
// study within one run quantum and returns the partial-result error
// contract of the sweep layer.
func Fig4Context(ctx context.Context, o Options) (Fig4Result, error) {
	return experiments.Fig4(ctx, o)
}

// Fig5Result is the Reunion FI/latency sensitivity sweep.
type Fig5Result = experiments.Fig5Result

// Fig5 sweeps Reunion's fingerprint interval and comparison latency
// (paper Figure 5). Passing nil benches/points selects the paper's
// defaults.
func Fig5(o Options) (Fig5Result, error) {
	return experiments.Fig5(context.Background(), o, nil, nil)
}

// Fig5Context is Fig5 under a context.
func Fig5Context(ctx context.Context, o Options) (Fig5Result, error) {
	return experiments.Fig5(ctx, o, nil, nil)
}

// Fig6Result is the Communication Buffer sizing sweep.
type Fig6Result = experiments.Fig6Result

// Fig6 sweeps the UnSync Communication Buffer size (paper Figure 6).
func Fig6(o Options) (Fig6Result, error) {
	return experiments.Fig6(context.Background(), o, nil, nil)
}

// Fig6Context is Fig6 under a context.
func Fig6Context(ctx context.Context, o Options) (Fig6Result, error) {
	return experiments.Fig6(ctx, o, nil, nil)
}

// SERResult is the soft-error-rate study (§VI-C).
type SERResult = experiments.SERResult

// SERSweep computes effective IPC across soft-error rates, validates
// it with injected-error timing runs, and solves for the break-even
// SER (paper §VI-C).
func SERSweep(o Options) (SERResult, error) {
	return experiments.SERSweep(context.Background(), o)
}

// SERSweepContext is SERSweep under a context.
func SERSweepContext(ctx context.Context, o Options) (SERResult, error) {
	return experiments.SERSweep(ctx, o)
}

// ROECResult is the region-of-error-coverage study (§VI-D).
type ROECResult = experiments.ROECResult

// ROEC runs the coverage comparison and the functional fault-injection
// campaigns (paper §VI-D).
func ROEC(trials int) (ROECResult, error) { return experiments.ROEC(context.Background(), trials) }

// ROECContext is ROEC under a context.
func ROECContext(ctx context.Context, trials int) (ROECResult, error) {
	return experiments.ROEC(ctx, trials)
}

// CoverageRow is one fault space's campaign outcome under a scheme.
type CoverageRow = experiments.CoverageRow

// CoverageStudy runs one coverage-driven campaign per fault space for
// both schemes (UnSync rows, Reunion rows) — the campaign-engine
// extension of the §VI-D study, with per-space SDC Wilson intervals.
func CoverageStudy(trials, workers int) ([]CoverageRow, []CoverageRow, error) {
	return experiments.CoverageStudy(context.Background(), trials, workers)
}

// CoverageStudyContext is CoverageStudy under a context: cancellation
// degrades each in-flight campaign to a resumable partial result.
func CoverageStudyContext(ctx context.Context, trials, workers int) ([]CoverageRow, []CoverageRow, error) {
	return experiments.CoverageStudy(ctx, trials, workers)
}

// RenderCoverage renders a scheme's per-space campaign table.
func RenderCoverage(scheme string, rows []CoverageRow) *Table {
	return experiments.RenderCoverage(scheme, rows)
}

// HardwareTableII exposes the raw synthesis model (block inventories,
// CACTI-lite cache model) for custom what-if studies.
func HardwareTableII(p hwmodel.Params) hwmodel.TableII { return hwmodel.Compute(p) }

// HardwareParams returns the paper's synthesis operating point.
func HardwareParams() hwmodel.Params { return hwmodel.DefaultParams() }

// ManyCoreCatalog returns the Table III processor datasheet entries.
func ManyCoreCatalog() []dies.ManyCore { return dies.Catalog() }

// FI5Points returns the paper's Figure 5 sweep axis.
func FI5Points() []sweep.Pair[int, uint64] { return experiments.DefaultFig5Points() }

// Ablation studies (design choices the paper argues for, quantified).
type (
	// WritePolicyRow is the §III-C1 write-through-requirement ablation.
	WritePolicyRow = experiments.WritePolicyRow
	// ForwardingRow is the §IV-A4 CSB register-forwarding ablation.
	ForwardingRow = experiments.ForwardingRow
	// DetectionRow is the §III-B1 detection-choice ablation.
	DetectionRow = experiments.DetectionRow
)

// AblationWritePolicy quantifies the write-back dirty-line exposure
// UnSync's write-through requirement eliminates (§III-C1).
func AblationWritePolicy(o Options) ([]WritePolicyRow, error) {
	return experiments.AblationWritePolicy(context.Background(), o)
}

// AblationForwarding quantifies Reunion without CSB register
// forwarding (§IV-A4).
func AblationForwarding(o Options) ([]ForwardingRow, error) {
	return experiments.AblationForwarding(context.Background(), o)
}

// AblationDetection compares detection-technique assignments for the
// UnSync core (§III-B1).
func AblationDetection() []DetectionRow { return experiments.AblationDetection() }

// RenderWritePolicy, RenderForwarding and RenderDetection render the
// ablation tables.
func RenderWritePolicy(rows []WritePolicyRow) *Table { return experiments.RenderWritePolicy(rows) }

// RenderForwarding renders the forwarding ablation.
func RenderForwarding(rows []ForwardingRow) *Table { return experiments.RenderForwarding(rows) }

// RenderDetection renders the detection ablation.
func RenderDetection(rows []DetectionRow) *Table { return experiments.RenderDetection(rows) }

// Extension studies beyond the paper's evaluation.
type (
	// RedundancyResult is the §VIII DMR-vs-TMR trade-off study.
	RedundancyResult = experiments.RedundancyResult
	// InterferenceRow is one chip-level co-scheduling measurement.
	InterferenceRow = experiments.InterferenceRow
)

// RedundancyStudy compares the UnSync DMR pair against the TMR triple
// extension (§VIII) across error rates. nil rates selects defaults.
func RedundancyStudy(o Options, benchmark string, rates []float64) (RedundancyResult, error) {
	return experiments.RedundancyStudy(context.Background(), o, benchmark, rates)
}

// ChipInterference measures co-scheduling slowdowns on the 4-core chip
// (two UnSync pairs sharing L2 and bus). nil pairs selects defaults.
func ChipInterference(o Options, pairs [][2]string, insts uint64) ([]InterferenceRow, error) {
	return experiments.ChipInterference(context.Background(), o, pairs, insts)
}

// RenderInterference renders the chip study.
func RenderInterference(rows []InterferenceRow) *Table { return experiments.RenderInterference(rows) }

// AVFRow is one benchmark's residency-weighted vulnerability estimate.
type AVFRow = experiments.AVFRow

// AVFEstimate weights the §VI-D structural bit counts by measured
// occupancy and reports each scheme's residual exposure.
func AVFEstimate(o Options) ([]AVFRow, error) {
	return experiments.AVFEstimate(context.Background(), o)
}

// RenderAVF renders the vulnerability estimate.
func RenderAVF(rows []AVFRow) *Table { return experiments.RenderAVF(rows) }

// ReplicatedRow is one benchmark's overhead measured across reseeded
// workload replicas (mean ± std).
type ReplicatedRow = experiments.ReplicatedRow

// ReplicatedFig4 repeats the Figure 4 measurement across n reseeded
// instances of every workload, separating architecture signal from
// generator noise.
func ReplicatedFig4(o Options, replicas int) ([]ReplicatedRow, error) {
	return experiments.ReplicatedFig4(context.Background(), o, replicas)
}

// RenderReplicated renders the replicated measurement.
func RenderReplicated(rows []ReplicatedRow) *Table { return experiments.RenderReplicated(rows) }

// EnergyRow is one benchmark's energy-per-instruction comparison.
type EnergyRow = experiments.EnergyRow

// EnergyStudy joins the Table II power model with measured throughput:
// nanojoules per architecturally useful instruction, per scheme.
func EnergyStudy(o Options) ([]EnergyRow, error) {
	return experiments.EnergyStudy(context.Background(), o)
}

// RenderEnergy renders the energy study.
func RenderEnergy(rows []EnergyRow) *Table { return experiments.RenderEnergy(rows) }

// EventsResult is the hardware-counter event study: per-scheme named
// counters, deltas against the baseline and topdown slot fractions.
type EventsResult = experiments.EventsResult

// Events runs the four built-in schemes on gzip and reads out their
// hardware counters (DESIGN §13). Render with RenderTopdown and
// RenderEvents.
func Events(o Options) (EventsResult, error) {
	return experiments.Events(context.Background(), o)
}
