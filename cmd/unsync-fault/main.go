// Command unsync-fault runs a resilient fault-injection campaign
// (internal/campaign) against one workload and reports the per-outcome
// tally, the per-space split and the SDC rate with its Wilson interval.
// With -fleet it runs the same campaign across unsync-serve -worker
// nodes (internal/fabric): the trial space is split into leased shard
// ranges, worker failures are absorbed by re-leasing from the last
// received record, and the merged result is byte-identical to a
// single-node -workers 1 run of the same flags.
//
// Usage:
//
//	unsync-fault [flags]
//	unsync-fault -fleet url[,url...] [flags]
//
// Campaign flags, in both modes:
//
//	-prog name      workload: a library program name (bubblesort, matmul,
//	                sieve, gcd, fibonacci, checksum) or a path to an
//	                assembly .s file (default "checksum")
//	-scheme string  recovery scheme: unsync or reunion (default "unsync")
//	-n int          number of injection trials (default 100)
//	-seed uint      campaign seed (default 1)
//	-spaces string  comma-separated fault spaces to draw from:
//	                int-reg,fp-reg,pc,mem,cb (default: all)
//	-fi int         Reunion fingerprint interval (default 10)
//	-max-steps      golden-run step bound (default 1000000)
//	-step-budget    per-trial watchdog budget (default 4×max-steps)
//	-workers int    worker pool size (0 = NumCPU); with -fleet, the pool
//	                size of each node (0 = the node's NumCPU)
//	-resume         load completed trials from -checkpoint (with -fleet,
//	                replay -journal) before running; they never re-run
//	-stop-after n   abort after n newly executed (with -fleet, received)
//	                trials (exit 3) — a deterministic stand-in for a
//	                mid-campaign kill, used by the CI kill+resume exercises
//	-json path      also write the campaign result as JSON ("-" = stdout)
//	-progress       print a live convergence readout to stderr: trials
//	                done, windowed SDC rate, Wilson-CI width and DLQ
//	                depth. Purely observational — early stopping still
//	                evaluates only at fixed round boundaries (-ci-width),
//	                never off this readout; resumed trials stream through
//	                it first
//	-dlq path       dead-letter sidecar: retry-exhausted and malformed
//	                trials append there as JSONL entries carrying the
//	                full per-attempt error chain; re-running with the
//	                same sidecar never duplicates an entry
//
// Single-node flags:
//
//	-batch int      lane width of the batched trial engine: workers claim
//	                trials in groups of up to this many lanes and classify
//	                them against the shared golden run in one kernel call.
//	                Outcomes, journals and the final result are
//	                bit-identical across widths; -batch 1 selects the
//	                scalar reference path (default 32)
//	-ci-width f     stop early once the Wilson 95% CI on the SDC rate is
//	                narrower than f (0 disables)
//	-checkpoint p   JSONL trial journal path ("" disables journaling)
//
// Fleet flags:
//
//	-fleet urls     comma-separated worker base URLs, e.g.
//	                http://10.0.0.7:8321, each running unsync-serve -worker
//	-journal path   coordinator journal: fsync'd lease events plus every
//	                received trial record (default "unsync-fleet.jsonl")
//	-merged path    write the merged canonical journal: trial records in
//	                index order, byte-identical to a single-node
//	                -workers 1 checkpoint ("" disables)
//	-shards n       static shard count (default 4 per worker)
//	-min-steal n    smallest remainder worth re-splitting (default 8)
//	-shard-attempts n  lease attempts per shard before aborting (default 16)
//	-lease-timeout d   heartbeat deadline on a silent shard stream
//	                   (default 60s)
//	-metrics addr   serve coordinator gauges on addr/metrics ("" disables)
//
// A flag of one mode given in the other exits 1 and names the flag.
//
// Exit status: 0 on a completed campaign, 1 on a hard failure, 2 on a
// completed campaign with failed trials OR a nonempty DLQ, 3 when
// -stop-after, SIGINT or SIGTERM interrupted the run (the partial
// result is still reported and every finished trial journaled, so
// -resume picks up where the interrupt landed).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/cmlasu/unsync/internal/campaign"
	"github.com/cmlasu/unsync/internal/fabric"
	"github.com/cmlasu/unsync/internal/fault"
	"github.com/cmlasu/unsync/internal/progs"
	"github.com/cmlasu/unsync/internal/report"
	"github.com/cmlasu/unsync/internal/serve"
	"github.com/cmlasu/unsync/internal/stream"
)

// The flags only one executor reads; setting one in the other mode is
// an error rather than silently ignored.
var nodeOnly, fleetOnly = []string{"batch", "ci-width", "checkpoint"},
	[]string{"journal", "merged", "shards", "min-steal", "shard-attempts", "lease-timeout", "metrics"}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: parse args, run the campaign single-node or
// across the -fleet, report, and return the exit status. The progress
// readout and the fleet's log write stderr from their own goroutines, so
// it must be safe for concurrent use, as os.Stderr is.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("unsync-fault", flag.ContinueOnError)
	fs.SetOutput(stderr)
	progName := fs.String("prog", "checksum", "library program name or .s file path")
	scheme := fs.String("scheme", campaign.SchemeUnSync, "recovery scheme: unsync or reunion")
	n := fs.Int("n", 100, "number of injection trials")
	seed := fs.Uint64("seed", 1, "campaign seed")
	spaces := fs.String("spaces", "", "comma-separated fault spaces (default all): int-reg,fp-reg,pc,mem,cb")
	fi := fs.Int("fi", 10, "Reunion fingerprint interval")
	maxSteps := fs.Uint64("max-steps", 1_000_000, "golden-run step bound")
	stepBudget := fs.Uint64("step-budget", 0, "per-trial watchdog budget (0 = 4×max-steps)")
	workers := fs.Int("workers", 0, "worker pool size, per node with -fleet (0 = NumCPU)")
	resume := fs.Bool("resume", false, "load completed trials from -checkpoint (-journal with -fleet)")
	stopAfter := fs.Int("stop-after", 0, "abort after n newly executed trials (exit 3)")
	jsonOut := fs.String("json", "", "also write the result as JSON (\"-\" = stdout)")
	progress := fs.Bool("progress", false, "print a live convergence readout to stderr")
	dlqPath := fs.String("dlq", "", "dead-letter sidecar path for retry-exhausted/malformed trials (exit 2 when nonempty)")
	batch := fs.Int("batch", campaign.DefaultBatch, "trial-engine lane width (1 = scalar path)")
	ciWidth := fs.Float64("ci-width", 0, "early-stop Wilson CI width on the SDC rate (0 disables)")
	checkpoint := fs.String("checkpoint", "", "JSONL trial journal path")
	fleetURLs := fs.String("fleet", "", "comma-separated worker base URLs: run the campaign across them")
	journal := fs.String("journal", "unsync-fleet.jsonl", "coordinator journal path")
	merged := fs.String("merged", "", "merged canonical journal output path")
	shards := fs.Int("shards", 0, "static shard count (0 = 4 per worker)")
	minSteal := fs.Int("min-steal", 0, "smallest remainder worth re-splitting (0 = 8)")
	shardAttempts := fs.Int("shard-attempts", 0, "lease attempts per shard before aborting (0 = 16)")
	leaseTimeout := fs.Duration("lease-timeout", 60*time.Second, "heartbeat deadline on a silent shard stream")
	metricsAddr := fs.String("metrics", "", "serve coordinator /metrics on this address")
	if err := fs.Parse(args); err != nil {
		// The statuses flag.ExitOnError gives: 0 for -h, 2 for a bad flag.
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "unsync-fault: %v\n", err)
		return 1
	}

	fleet := *fleetURLs != ""
	var misuse error
	fs.Visit(func(f *flag.Flag) {
		if fleet && slices.Contains(nodeOnly, f.Name) {
			misuse = fmt.Errorf("-%s is a single-node flag; it does not apply with -fleet", f.Name)
		} else if !fleet && slices.Contains(fleetOnly, f.Name) {
			misuse = fmt.Errorf("-%s applies only with -fleet", f.Name)
		}
	})
	if misuse != nil {
		return fail(misuse)
	}

	params := serve.CampaignParams{
		Scheme:     *scheme,
		Trials:     *n,
		Seed:       *seed,
		FI:         *fi,
		MaxSteps:   *maxSteps,
		StepBudget: *stepBudget,
		Workers:    *workers,
		CIWidth:    *ciWidth,
	}
	if *spaces != "" {
		params.Spaces = strings.Split(*spaces, ",")
	}
	if p, ok := progs.ByName(*progName); ok {
		params.Prog = p.Name
	} else if src, err := os.ReadFile(*progName); err == nil {
		params.Source = string(src)
	} else {
		return fail(fmt.Errorf("%q is neither a library program nor a readable file: %w", *progName, err))
	}
	err := params.Validate()
	if err != nil {
		return fail(err)
	}
	prog, _ := params.Program() // validated above
	spec := params.Spec()
	spec.Checkpoint, spec.Resume, spec.StopAfter, spec.Batch = *checkpoint, *resume, *stopAfter, *batch
	spec.Stats = &campaign.BatchStats{}

	// The streaming plane is wired in only when asked for: it observes
	// every classified trial once (resumed trials first), feeds the
	// -progress readout and captures dead letters, and is strictly
	// observational — the Result and journal bytes are bit-identical
	// with or without it.
	var plane *stream.Plane
	var progressDone sync.WaitGroup
	if *progress || *dlqPath != "" {
		plane, err = stream.NewPlane(stream.PlaneConfig{
			DLQ: *dlqPath,
			Key: spec.Normalized().Key(campaign.ProgHash(prog)),
			// Throttle the readout; the plane's accounting itself
			// counts every record.
			EmitEvery: 200 * time.Millisecond,
		})
		if err != nil {
			return fail(err)
		}
		spec.Observer = plane.Observe
		if *progress {
			tap := plane.Subscribe(8)
			progressDone.Add(1)
			go func() {
				defer progressDone.Done()
				// Ranges until plane.Close delivers the final frame and
				// closes the tap; a slow terminal sheds intermediate
				// frames, never stalls the campaign.
				for fr := range tap.C {
					fmt.Fprintf(stderr, "progress: %s\n", stream.FormatFrame(fr))
				}
			}()
		}
	}

	// SIGINT/SIGTERM cancel the campaign instead of killing it mid-trial:
	// both executors drain, journal every finished trial and return the
	// partial result under ErrInterrupted, so a Ctrl-C'd campaign
	// resumes exactly like a -stop-after one.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	var coord *fabric.Coordinator
	var res campaign.Result
	if fleet {
		// Blank entries and trailing slashes in the URL list are dropped.
		urls := strings.Split(*fleetURLs, ",")
		for i, u := range urls {
			urls[i] = strings.TrimSuffix(strings.TrimSpace(u), "/")
		}
		coord, err = fabric.New(fabric.Config{
			Workers:       slices.DeleteFunc(urls, func(u string) bool { return u == "" }),
			Params:        params,
			Journal:       *journal,
			Resume:        *resume,
			Merged:        *merged,
			Shards:        *shards,
			MinSteal:      *minSteal,
			ShardAttempts: *shardAttempts,
			LeaseTimeout:  *leaseTimeout,
			StopAfter:     *stopAfter,
			Log:           stderr,
			Plane:         plane,
		})
		if err == nil {
			if *metricsAddr != "" {
				mux := http.NewServeMux()
				mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
					writeMetrics(w, coord.Snapshot(), plane)
				})
				msrv := &http.Server{Addr: *metricsAddr, Handler: mux}
				// Detached like the unsync-serve acceptor: the process
				// exits with the campaign and takes the listener with it.
				//unsync:allow-goroutine metrics listener lives for the process lifetime; exits with main
				go func() { _ = msrv.ListenAndServe() }()
			}
			res, err = coord.Run(ctx)
		}
	} else {
		res, err = campaign.RunContext(ctx, prog, spec)
	}
	if cerr := plane.Close(); cerr != nil {
		// A determinism violation or a dead-letter write failure must
		// not vanish just because every trial classified.
		fmt.Fprintf(stderr, "unsync-fault: streaming plane: %v\n", cerr)
		if err == nil {
			err = cerr
		}
	}
	progressDone.Wait()
	interrupted := errors.Is(err, campaign.ErrInterrupted)
	if err != nil && !interrupted && res.Ran == 0 {
		return fail(err)
	}
	if err != nil {
		fmt.Fprintf(stderr, "unsync-fault: %v\n", err)
	}

	fmt.Fprint(stdout, render(res, spec.Stats, coord).Text())
	if *jsonOut != "" {
		if werr := writeJSON(*jsonOut, res, stdout); werr != nil {
			return fail(werr)
		}
	}

	switch {
	case interrupted:
		return 3
	case res.Failed > 0 || plane.DLQDepth() > 0:
		// A nonempty DLQ means trials were quarantined — possibly by an
		// earlier run of the same sidecar — and someone should look.
		return 2
	}
	return 0
}

// render lays the campaign result out as a table: the overall tally
// first, then one row per injected space. The notes add early stopping,
// the batch engine's lane split, and for a fleet run (coord non-nil)
// its leases, re-leases, steals and duplicate records.
func render(res campaign.Result, stats *campaign.BatchStats, coord *fabric.Coordinator) *report.Table {
	t := report.New(fmt.Sprintf("Fault campaign — %s (prog %s, seed %d)", res.Scheme, res.Prog, res.Seed),
		"Space", "Trials", "Benign", "Recovered", "Unrec", "Hang", "SDC")
	row := func(name string, c fault.CampaignResult) {
		t.Row(name, report.I(uint64(c.Trials)), report.I(uint64(c.Benign)),
			report.I(uint64(c.Recovered)), report.I(uint64(c.Unrecoverable)),
			report.I(uint64(c.Hangs)), report.I(uint64(c.SDC)))
	}
	row("all", res.Tally)
	names := make([]string, 0, len(res.BySpace))
	for name := range res.BySpace {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		row(name, res.BySpace[name])
	}
	early := ""
	if res.EarlyStop {
		early = "; stopped early on CI width"
	}
	t.Note("ran %d/%d trials (%d failed); SDC rate %.2f%% (95%% CI [%.2f%%, %.2f%%])%s",
		res.Ran, res.Requested, res.Failed, 100*res.SDCRate, 100*res.SDCLo, 100*res.SDCHi, early)
	if stats.Lanes() > 0 {
		t.Note("batch engine: %d lanes (%d shortcut, %d lockstep, %d retired to scalar — %.1f%%)",
			stats.Lanes(), stats.Shortcut(), stats.Lockstep(), stats.Retired(), 100*stats.RetiredFrac())
	}
	if coord != nil {
		snap := coord.Snapshot()
		t.Note("fleet: %d shards, %d leases (%d re-leases, %d steals), %d duplicate records deduped",
			snap.Shards, snap.Leases, snap.Failures, snap.Splits, snap.Duplicates)
	}
	return t
}

// writeMetrics renders the coordinator snapshot through serve's
// Prometheus text writer. plane may be nil (no -progress/-dlq).
func writeMetrics(w http.ResponseWriter, snap fabric.Snapshot, plane *stream.Plane) {
	var e serve.Exposition
	e.Gauge("unsync_fleet_trials", "Trials in the campaign.", float64(snap.Trials))
	e.Gauge("unsync_fleet_trials_done", "Trial records received and journaled.", float64(snap.Done))
	if plane != nil {
		fr := plane.Snapshot()
		e.Gauge("unsync_fleet_dlq_depth", "Distinct dead-lettered trials in the DLQ sidecar.", float64(fr.DLQDepth))
		e.Gauge("unsync_fleet_window_sdc_rate", "SDC rate over the streaming plane's sliding window.", fr.WindowRate)
	}
	e.Family("unsync_fleet_shards", "gauge", "Shards by lease state.")
	for _, st := range []string{"pending", "running", "done"} {
		e.Count("unsync_fleet_shards", uint64(snap.ShardsByState[st]), "state", st)
	}
	e.Counter("unsync_fleet_leases_total", "Shard leases granted since start.", snap.Leases)
	e.Counter("unsync_fleet_lease_failures_total", "Leases that failed and re-pended their range.", snap.Failures)
	e.Counter("unsync_fleet_steals_total", "Straggler ranges re-split by idle workers.", snap.Splits)
	e.Counter("unsync_fleet_duplicate_records_total", "Bit-identical duplicate records deduped on arrival.", snap.Duplicates)
	e.Serve(w)
}

// writeJSON writes the result as indented JSON to path, or to stdout
// when path is "-".
func writeJSON(path string, res campaign.Result, stdout io.Writer) error {
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if path == "-" {
		_, err = stdout.Write(b)
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
