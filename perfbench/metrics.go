package main

import (
	"fmt"
	"math"
	"regexp"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to values. encoding/json writes map keys
// sorted, so the result line lists metrics by name.
type metrics map[string]metric

// set records a value; a non-finite value (a rate over an empty
// interval) is stored as 0 so the result line stays valid JSON.
func (m metrics) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

// metricDef names one metric the benchmark declares.
type metricDef struct{ name, unit string }

// endToEnd lists the end-to-end metrics of an untraced run. Every
// workload reports all of them. Each workload measures one of the two
// throughputs and derives the other from it by a fixed factor
// (README.md says which): sim_minst_per_cpu_s is measured on fig-*,
// trials_per_cpu_s on campaign and fleet.
var endToEnd = []metricDef{
	{"cpu_utilization", "ratio"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
	{"sim_minst_per_cpu_s", "Minst/cpu-s"},
	{"trials_per_cpu_s", "1/cpu-s"},
}

// perLayer lists the per-layer metrics of a traced run, named after the
// module they measure. A workload that does not exercise a layer
// reports 0 for it.
var perLayer = []metricDef{
	{"bench.fail_frac", "ratio"},
	{"bench.tracing_overhead_frac", "ratio"},
	{"campaign.alloc_bytes_per_trial", "B"},
	{"campaign.journal_bytes_per_trial", "B"},
	{"campaign.journal_s_per_ktrial", "s"},
	{"campaign.replay_ns_per_record", "ns"},
	{"cmp.run_ns_per_cycle.baseline", "ns"},
	{"cmp.run_ns_per_cycle.reunion", "ns"},
	{"cmp.run_ns_per_cycle.unsync", "ns"},
	{"cmp.unattributed_frac", "ratio"},
	{"core.pair_step_ns_per_cycle", "ns"},
	{"emu.golden_ns_per_step", "ns"},
	{"fabric.dup_frac", "ratio"},
	{"fabric.failures", "count"},
	{"fabric.ingest_ns_per_record", "ns"},
	{"fabric.leases", "count"},
	{"fabric.read_wait_frac", "ratio"},
	{"fabric.splits", "count"},
	{"fabric.tail_s", "s"},
	{"fabric.wire_bytes_per_trial", "B"},
	{"fault.lockstep_frac", "ratio"},
	{"fault.retired_frac", "ratio"},
	{"fault.reunion_ns_per_trial", "ns"},
	{"fault.shortcut_frac", "ratio"},
	{"fault.unsync_ns_per_trial", "ns"},
	{"mem.access_ns", "ns"},
	{"mem.accesses_per_kinst", "count"},
	{"pipeline.idle_cycle_frac", "ratio"},
	{"pipeline.step_ns_per_cycle", "ns"},
	{"reunion.pair_step_ns_per_cycle", "ns"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"serve.shard_busy_frac", "ratio"},
	{"serve.shard_ns_per_trial", "ns"},
	{"stream.dlq_depth", "count"},
	{"stream.dropped", "count"},
	{"stream.observe_wait_frac", "ratio"},
	{"stream.plane_s_per_ktrial", "s"},
	{"sweep.worker_busy_frac", "ratio"},
	{"trace.materialize_s", "s"},
	{"trace.replay_ns_per_inst", "ns"},
}

// complete fills every declared metric the workload did not produce
// with 0 and rejects a metric that is not declared.
func (m metrics) complete(defs []metricDef) error {
	declared := make(map[string]bool, len(defs))
	for _, d := range defs {
		declared[d.name] = true
		if _, ok := m[d.name]; !ok {
			m.set(d.name, d.unit, 0)
		}
	}
	for name := range m {
		if !declared[name] {
			return fmt.Errorf("workload reported undeclared metric %q", name)
		}
	}
	return nil
}

var (
	nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validName reports whether s is a well-formed metric name.
func validName(s string) bool { return nameRe.MatchString(s) }

// validUnit reports whether s is a well-formed unit.
func validUnit(s string) bool { return unitRe.MatchString(s) }
