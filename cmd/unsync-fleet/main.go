// Command unsync-fleet coordinates a distributed fault-injection
// campaign (internal/fabric): it splits the trial space into leased
// shard ranges, dispatches them to unsync-serve -worker nodes, absorbs
// worker failures by re-leasing from the last received record, and
// merges the streamed-back records into one aggregate result that is
// bit-identical to a single-node unsync-fault run of the same flags.
//
// Usage:
//
//	unsync-fleet -workers url[,url...] [flags]
//
//	-workers urls   comma-separated worker base URLs (required), e.g.
//	                http://10.0.0.7:8321 — each running
//	                unsync-serve -worker
//	-prog name      workload: a library program name or a path to an
//	                assembly .s file (default "checksum")
//	-scheme string  recovery scheme: unsync or reunion (default "unsync")
//	-n int          number of injection trials (default 100)
//	-seed uint      campaign seed (default 1)
//	-spaces string  comma-separated fault spaces: int-reg,fp-reg,pc,mem,cb
//	                (default: all)
//	-fi int         Reunion fingerprint interval (default 10)
//	-max-steps      golden-run step bound (default 1000000)
//	-step-budget    per-trial watchdog budget (0 = 4×max-steps)
//	-node-workers n per-node worker pool size forwarded to each worker
//	                (0 = the node's NumCPU)
//	-shards n       static shard count (default 4 per worker)
//	-min-steal n    smallest remainder worth re-splitting (default 8)
//	-shard-attempts n  lease attempts per shard before aborting (default 16)
//	-lease-timeout d   heartbeat deadline on a silent shard stream
//	                   (default 60s)
//	-journal path   coordinator journal: fsync'd lease events plus every
//	                received trial record (default "unsync-fleet.jsonl")
//	-resume         replay -journal before dispatching; received trials
//	                and completed shards never re-run
//	-merged path    write the merged canonical journal: trial records in
//	                index order, byte-identical to a single-node
//	                -workers 1 checkpoint ("" disables)
//	-json path      also write the campaign result as JSON ("-" = stdout)
//	-stop-after n   abort after n newly received records (exit 3) — the
//	                deterministic stand-in for a coordinator kill
//	-metrics addr   serve coordinator gauges on addr/metrics ("" disables)
//	-progress       print a live convergence readout to stderr: records
//	                received, windowed SDC rate, Wilson-CI width and DLQ
//	                depth. Purely observational; on -resume the replayed
//	                records stream through it first, so the readout
//	                starts from the campaign's real state
//	-dlq path       dead-letter sidecar: retry-exhausted and malformed
//	                records stream-merged from every shard append there
//	                as JSONL with the full per-attempt error chain. The
//	                sidecar replays on open, so a restarted coordinator
//	                never duplicates an entry
//
// Exit status: 0 on a completed campaign, 1 on a hard failure, 2 on a
// completed campaign with failed trials OR a nonempty DLQ, 3 when
// -stop-after, SIGINT or SIGTERM interrupted the run (the journal holds
// every received trial; -resume completes the campaign without
// re-running them).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
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

func main() {
	workers := flag.String("workers", "", "comma-separated worker base URLs (required)")
	progName := flag.String("prog", "checksum", "library program name or .s file path")
	scheme := flag.String("scheme", campaign.SchemeUnSync, "recovery scheme: unsync or reunion")
	n := flag.Int("n", 100, "number of injection trials")
	seed := flag.Uint64("seed", 1, "campaign seed")
	spaces := flag.String("spaces", "", "comma-separated fault spaces (default all): int-reg,fp-reg,pc,mem,cb")
	fi := flag.Int("fi", 10, "Reunion fingerprint interval")
	maxSteps := flag.Uint64("max-steps", 1_000_000, "golden-run step bound")
	stepBudget := flag.Uint64("step-budget", 0, "per-trial watchdog budget (0 = 4×max-steps)")
	nodeWorkers := flag.Int("node-workers", 0, "per-node worker pool size (0 = node NumCPU)")
	shards := flag.Int("shards", 0, "static shard count (0 = 4 per worker)")
	minSteal := flag.Int("min-steal", 0, "smallest remainder worth re-splitting (0 = 8)")
	shardAttempts := flag.Int("shard-attempts", 0, "lease attempts per shard before aborting (0 = 16)")
	leaseTimeout := flag.Duration("lease-timeout", 60*time.Second, "heartbeat deadline on a silent shard stream")
	journal := flag.String("journal", "unsync-fleet.jsonl", "coordinator journal path")
	resume := flag.Bool("resume", false, "replay -journal before dispatching")
	merged := flag.String("merged", "", "merged canonical journal output path")
	jsonOut := flag.String("json", "", "also write the result as JSON (\"-\" = stdout)")
	stopAfter := flag.Int("stop-after", 0, "abort after n newly received records (exit 3)")
	metricsAddr := flag.String("metrics", "", "serve coordinator /metrics on this address")
	progress := flag.Bool("progress", false, "print a live convergence readout to stderr")
	dlqPath := flag.String("dlq", "", "dead-letter sidecar path for retry-exhausted/malformed records (exit 2 when nonempty)")
	flag.Parse()

	if *workers == "" {
		fatal(errors.New("no -workers configured"))
	}
	var urls []string
	for _, u := range strings.Split(*workers, ",") {
		if u = strings.TrimSpace(strings.TrimSuffix(u, "/")); u != "" {
			urls = append(urls, u)
		}
	}

	params := serve.CampaignParams{
		Scheme:     *scheme,
		Trials:     *n,
		Seed:       *seed,
		FI:         *fi,
		MaxSteps:   *maxSteps,
		StepBudget: *stepBudget,
		Workers:    *nodeWorkers,
	}
	if *spaces != "" {
		params.Spaces = strings.Split(*spaces, ",")
	}
	if p, ok := progs.ByName(*progName); ok {
		params.Prog = p.Name
	} else {
		src, err := os.ReadFile(*progName)
		if err != nil {
			fatal(fmt.Errorf("%q is neither a library program nor a readable file: %w", *progName, err))
		}
		params.Source = string(src)
	}

	// The streaming plane observes the merged record stream from every
	// shard — journal replays, then each trial's first live arrival
	// (the coordinator drops duplicates first) — feeding the -progress
	// readout and the dead-letter sidecar. Strictly observational: the
	// merged Result and journal bytes are identical with or without it.
	var plane *stream.Plane
	var progressDone sync.WaitGroup
	if *progress || *dlqPath != "" {
		prog, perr := params.Program()
		if perr != nil {
			fatal(perr)
		}
		plane, perr = stream.NewPlane(stream.PlaneConfig{
			DLQ:       *dlqPath,
			Key:       params.Spec().Normalized().Key(campaign.ProgHash(prog)),
			EmitEvery: 200 * time.Millisecond,
		})
		if perr != nil {
			fatal(perr)
		}
		if *progress {
			tap := plane.Subscribe(8)
			progressDone.Add(1)
			go func() {
				defer progressDone.Done()
				// Ranges until plane.Close delivers the final frame; a
				// slow terminal sheds frames, never stalls the merge.
				for fr := range tap.C {
					fmt.Fprintf(os.Stderr, "progress: %s\n", stream.FormatFrame(fr))
				}
			}()
		}
	}

	coord, err := fabric.New(fabric.Config{
		Workers:       urls,
		Params:        params,
		Journal:       *journal,
		Resume:        *resume,
		Merged:        *merged,
		Shards:        *shards,
		MinSteal:      *minSteal,
		ShardAttempts: *shardAttempts,
		LeaseTimeout:  *leaseTimeout,
		StopAfter:     *stopAfter,
		Log:           os.Stderr,
		Plane:         plane,
	})
	if err != nil {
		fatal(err)
	}

	if *metricsAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			writeMetrics(w, coord.Snapshot(), plane)
		})
		msrv := &http.Server{Addr: *metricsAddr, Handler: mux}
		// Detached like the unsync-serve acceptor: the process exits with
		// the campaign and takes the listener with it.
		//unsync:allow-goroutine metrics listener lives for the process lifetime; exits with main
		go func() { _ = msrv.ListenAndServe() }()
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	res, err := coord.Run(ctx)
	if cerr := plane.Close(); cerr != nil {
		// A determinism violation or a dead-letter write failure must
		// not vanish just because every trial classified.
		fmt.Fprintf(os.Stderr, "unsync-fleet: streaming plane: %v\n", cerr)
		if err == nil {
			err = cerr
		}
	}
	progressDone.Wait()
	interrupted := errors.Is(err, campaign.ErrInterrupted)
	if err != nil && !interrupted {
		fatal(err)
	}
	if interrupted {
		fmt.Fprintf(os.Stderr, "unsync-fleet: %v\n", err)
		os.Exit(3)
	}

	fmt.Print(render(res, coord.Snapshot()).Text())
	if *jsonOut != "" {
		if werr := writeJSON(*jsonOut, res); werr != nil {
			fatal(werr)
		}
	}
	if res.Failed > 0 || plane.DLQDepth() > 0 {
		os.Exit(2)
	}
}

// render lays the merged campaign result out exactly like unsync-fault,
// plus a fleet note: leases, re-leases, steals and duplicate records.
func render(res campaign.Result, snap fabric.Snapshot) *report.Table {
	t := report.New(fmt.Sprintf("Fleet campaign — %s (prog %s, seed %d)", res.Scheme, res.Prog, res.Seed),
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
	t.Note("ran %d/%d trials (%d failed); SDC rate %.2f%% (95%% CI [%.2f%%, %.2f%%])",
		res.Ran, res.Requested, res.Failed, 100*res.SDCRate, 100*res.SDCLo, 100*res.SDCHi)
	t.Note("fleet: %d shards, %d leases (%d re-leases, %d steals), %d duplicate records deduped",
		snap.Shards, snap.Leases, snap.Failures, snap.Splits, snap.Duplicates)
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

func writeJSON(path string, res campaign.Result) error {
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(b)
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "unsync-fleet: %v\n", err)
	os.Exit(1)
}
