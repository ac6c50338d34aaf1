package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"

	"github.com/cmlasu/unsync/internal/stream"
)

// handleMetrics serves GET /metrics in the Prometheus text exposition
// format (version 0.0.4). It exposes the server's own operational
// gauges (in-flight jobs, queue depth, shed submits, jobs by state)
// and, for every finished job whose result carries an
// "Events" map under the repository-wide counter taxonomy
// (internal/events), one `unsync_job_event_total` sample per counter,
// labeled with the job ID and event name.
//
// The snapshot is taken under the server lock; rendering happens
// outside it so a slow scrape cannot stall job admission.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}

	type jobEvents struct {
		id     string
		counts map[string]uint64
	}
	type jobPlane struct {
		id    string
		frame stream.Frame
	}
	s.mu.Lock()
	inflight := s.gate.InFlight()
	queued := s.gate.Queued()
	shed := s.shed
	shardsActive := s.shardsActive
	shardsTotal := s.shardsTotal
	shardTrials := s.shardTrials
	shardFailures := s.shardFailures
	byState := map[JobState]int{}
	var finished []jobEvents
	var planes []jobPlane
	for _, id := range s.order {
		job := s.jobs[id]
		byState[job.State]++
		if pl := s.planes[id]; pl != nil {
			// Snapshot takes only the plane's own lock; no path from it
			// back to s.mu.
			planes = append(planes, jobPlane{id: id, frame: pl.Snapshot()})
		}
		if job.State != StateDone || len(job.Result) == 0 {
			continue
		}
		// The result is campaign.Result or a figure payload; only the
		// former carries an Events map. A partial decode keeps the
		// handler independent of the concrete result type.
		var payload struct {
			Events map[string]uint64 `json:"Events"`
		}
		if err := json.Unmarshal(job.Result, &payload); err == nil && len(payload.Events) > 0 {
			finished = append(finished, jobEvents{id: id, counts: payload.Events})
		}
	}
	s.mu.Unlock()

	var e Exposition
	e.Gauge("unsync_serve_inflight_jobs", "Jobs currently holding a worker slot.", float64(inflight))
	e.Gauge("unsync_serve_queue_depth", "Admitted jobs waiting for a worker slot.", float64(queued))
	e.Counter("unsync_serve_shed_total", "Submits rejected with 429 since process start.", shed)

	if s.cfg.EnableShards {
		e.Gauge("unsync_serve_shards_active", "Leased shard streams executing now (worker mode).", float64(shardsActive))
		e.Counter("unsync_serve_shards_total", "Shard leases accepted since process start.", shardsTotal)
		e.Counter("unsync_serve_shard_trials_total", "Trial records streamed to coordinators since process start.", shardTrials)
		e.Counter("unsync_serve_shard_failures_total", "Shards cut short worker-side since process start.", shardFailures)
	}

	if len(planes) > 0 {
		labeled := func(name, help string, sample func(jobPlane) float64) {
			e.Family(name, "gauge", help)
			for _, jp := range planes {
				e.Sample(name, sample(jp), "job", jp.id)
			}
		}
		labeled("unsync_job_trials_done", "Trial records the job's streaming plane has admitted.",
			func(jp jobPlane) float64 { return float64(jp.frame.Done) })
		labeled("unsync_job_window_sdc_rate", "SDC rate over the plane's sliding window.",
			func(jp jobPlane) float64 { return jp.frame.WindowRate })
		labeled("unsync_job_dlq_depth", "Distinct dead-lettered trials in the job's DLQ sidecar.",
			func(jp jobPlane) float64 { return float64(jp.frame.DLQDepth) })
	}

	e.Family("unsync_serve_jobs", "gauge", "Jobs known to the server, by state.")
	states := make([]string, 0, len(byState))
	for st := range byState {
		states = append(states, string(st))
	}
	sort.Strings(states)
	for _, st := range states {
		e.Count("unsync_serve_jobs", uint64(byState[JobState(st)]), "state", st)
	}

	if len(finished) > 0 {
		e.Family("unsync_job_event_total", "counter", "Per-job hardware/campaign counters under the internal/events taxonomy.")
		for _, je := range finished {
			names := make([]string, 0, len(je.counts))
			for name := range je.counts {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				e.Count("unsync_job_event_total", je.counts[name], "job", je.id, "event", name)
			}
		}
	}
	e.Serve(w)
}

// Exposition builds a Prometheus text-format (version 0.0.4) body. It
// is the one writer behind both /metrics endpoints: this server's and
// the fleet coordinator's (unsync-fault -fleet -metrics).
type Exposition struct {
	b strings.Builder
}

// Family opens a metric family with its HELP and TYPE lines; labeled
// samples follow through Sample or Count.
func (e *Exposition) Family(name, typ, help string) {
	fmt.Fprintf(&e.b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Gauge writes a single-sample gauge family.
func (e *Exposition) Gauge(name, help string, v float64) {
	e.Family(name, "gauge", help)
	e.Sample(name, v)
}

// Counter writes a single-sample counter family.
func (e *Exposition) Counter(name, help string, v uint64) {
	e.Family(name, "counter", help)
	e.Count(name, v)
}

// Sample writes one sample with a %g value. labels alternate label
// name and value.
func (e *Exposition) Sample(name string, v float64, labels ...string) {
	fmt.Fprintf(&e.b, "%s%s %g\n", name, labelSet(labels), v)
}

// Count writes one sample with an integer value. labels alternate
// label name and value.
func (e *Exposition) Count(name string, v uint64, labels ...string) {
	fmt.Fprintf(&e.b, "%s%s %d\n", name, labelSet(labels), v)
}

// Serve writes the body as a text-exposition response.
func (e *Exposition) Serve(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(e.b.String()))
}

// labelSet renders alternating name/value pairs as {n1="v1",n2="v2"},
// or "" when there are none.
func labelSet(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", kv[i], kv[i+1])
	}
	b.WriteByte('}')
	return b.String()
}
