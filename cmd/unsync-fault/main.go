// Command unsync-fault runs a resilient fault-injection campaign
// (internal/campaign) against one workload and reports the per-outcome
// tally, the per-space split and the SDC rate with its Wilson interval.
//
// Usage:
//
//	unsync-fault [flags]
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
//	-workers int    worker pool size (0 = NumCPU)
//	-batch int      lane width of the batched trial engine: workers claim
//	                trials in groups of up to this many lanes and classify
//	                them against the shared golden run in one kernel call.
//	                Outcomes, journals and the final result are
//	                bit-identical across widths; -batch 1 selects the
//	                scalar reference path (default 32)
//	-ci-width f     stop early once the Wilson 95% CI on the SDC rate is
//	                narrower than f (0 disables)
//	-checkpoint p   JSONL trial journal path ("" disables journaling)
//	-resume         load completed trials from -checkpoint before running
//	-stop-after n   abort after n newly executed trials (exit 3) — a
//	                deterministic stand-in for a mid-campaign kill, used
//	                by the CI kill+resume exercise
//	-json path      also write the campaign result as JSON ("-" = stdout)
//	-progress       print a live convergence readout to stderr: trials
//	                done, windowed SDC rate, Wilson-CI width and DLQ
//	                depth. Purely observational — early stopping still
//	                evaluates only at fixed round boundaries (-ci-width),
//	                never off this readout
//	-dlq path       dead-letter sidecar: retry-exhausted and malformed
//	                trials append there as JSONL entries carrying the
//	                full per-attempt error chain; re-running with the
//	                same sidecar never duplicates an entry
//
// Exit status: 0 on a completed campaign, 1 on a hard failure, 2 on a
// completed campaign with failed trials OR a nonempty DLQ, 3 when
// -stop-after, SIGINT or SIGTERM interrupted the run (the partial
// result is still reported and journaled, so -resume picks up where
// the interrupt landed).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/cmlasu/unsync/internal/asm"
	"github.com/cmlasu/unsync/internal/campaign"
	"github.com/cmlasu/unsync/internal/fault"
	"github.com/cmlasu/unsync/internal/progs"
	"github.com/cmlasu/unsync/internal/report"
	"github.com/cmlasu/unsync/internal/stream"
)

func main() {
	progName := flag.String("prog", "checksum", "library program name or .s file path")
	scheme := flag.String("scheme", campaign.SchemeUnSync, "recovery scheme: unsync or reunion")
	n := flag.Int("n", 100, "number of injection trials")
	seed := flag.Uint64("seed", 1, "campaign seed")
	spaces := flag.String("spaces", "", "comma-separated fault spaces (default all): int-reg,fp-reg,pc,mem,cb")
	fi := flag.Int("fi", 10, "Reunion fingerprint interval")
	maxSteps := flag.Uint64("max-steps", 1_000_000, "golden-run step bound")
	stepBudget := flag.Uint64("step-budget", 0, "per-trial watchdog budget (0 = 4×max-steps)")
	workers := flag.Int("workers", 0, "worker pool size (0 = NumCPU)")
	batch := flag.Int("batch", campaign.DefaultBatch, "trial-engine lane width (1 = scalar path)")
	ciWidth := flag.Float64("ci-width", 0, "early-stop Wilson CI width on the SDC rate (0 disables)")
	checkpoint := flag.String("checkpoint", "", "JSONL trial journal path")
	resume := flag.Bool("resume", false, "load completed trials from -checkpoint")
	stopAfter := flag.Int("stop-after", 0, "abort after n newly executed trials (exit 3)")
	jsonOut := flag.String("json", "", "also write the result as JSON (\"-\" = stdout)")
	progress := flag.Bool("progress", false, "print a live convergence readout to stderr")
	dlqPath := flag.String("dlq", "", "dead-letter sidecar path for retry-exhausted/malformed trials (exit 2 when nonempty)")
	flag.Parse()

	prog, err := loadProgram(*progName)
	if err != nil {
		fatal(err)
	}
	spec := campaign.Spec{
		Scheme:     *scheme,
		Trials:     *n,
		Seed:       *seed,
		MaxSteps:   *maxSteps,
		StepBudget: *stepBudget,
		FI:         *fi,
		Workers:    *workers,
		CIWidth:    *ciWidth,
		Checkpoint: *checkpoint,
		Resume:     *resume,
		StopAfter:  *stopAfter,
		Batch:      *batch,
		Stats:      &campaign.BatchStats{},
	}
	if *spaces != "" {
		for _, name := range strings.Split(*spaces, ",") {
			sp, ok := fault.SpaceByName(strings.TrimSpace(name))
			if !ok {
				fatal(fmt.Errorf("unknown fault space %q (want int-reg, fp-reg, pc, mem or cb)", name))
			}
			spec.Spaces = append(spec.Spaces, sp)
		}
	}

	// The streaming plane is wired in only when asked for: it observes
	// every classified trial, feeds the -progress readout and captures
	// dead letters, and is strictly observational — the Result and
	// checkpoint bytes are bit-identical with or without it.
	var plane *stream.Plane
	var progressDone sync.WaitGroup
	if *progress || *dlqPath != "" {
		key := spec.Normalized().Key(campaign.ProgHash(prog))
		plane, err = stream.NewPlane(stream.PlaneConfig{
			DLQ: *dlqPath,
			Key: key,
			// Throttle the readout; the plane's accounting itself
			// counts every record.
			EmitEvery: 200 * time.Millisecond,
		})
		if err != nil {
			fatal(err)
		}
		spec.Observer = plane.Observe
		if *progress {
			tap := plane.Subscribe(8)
			progressDone.Add(1)
			go func() {
				defer progressDone.Done()
				// Ranges until plane.Close delivers the final frame and
				// closes the tap; a slow terminal sheds intermediate
				// frames, never stalls trial execution.
				for fr := range tap.C {
					fmt.Fprintf(os.Stderr, "progress: %s\n", stream.FormatFrame(fr))
				}
			}()
		}
	}

	// SIGINT/SIGTERM cancel the campaign instead of killing it mid-trial:
	// RunContext drains the workers, journals every completed trial and
	// returns the partial result under ErrInterrupted, so a Ctrl-C'd
	// campaign resumes from its checkpoint exactly like a -stop-after one.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	res, err := campaign.RunContext(ctx, prog, spec)
	if cerr := plane.Close(); cerr != nil {
		// A determinism violation or a dead-letter write failure must
		// not vanish just because every trial classified.
		fmt.Fprintf(os.Stderr, "unsync-fault: streaming plane: %v\n", cerr)
		if err == nil {
			err = cerr
		}
	}
	progressDone.Wait()
	interrupted := errors.Is(err, campaign.ErrInterrupted)
	if err != nil && !interrupted && res.Ran == 0 {
		fatal(err)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "unsync-fault: %v\n", err)
	}

	fmt.Print(render(res, spec.Stats).Text())
	if *jsonOut != "" {
		if werr := writeJSON(*jsonOut, res); werr != nil {
			fatal(werr)
		}
	}

	switch {
	case interrupted:
		os.Exit(3)
	case res.Failed > 0 || plane.DLQDepth() > 0:
		// A nonempty DLQ means trials were quarantined — possibly by an
		// earlier run of the same sidecar — and someone should look.
		os.Exit(2)
	}
}

// loadProgram resolves the workload: a progs library name, or a path to
// an assembly source file.
func loadProgram(name string) (*asm.Program, error) {
	if p, ok := progs.ByName(name); ok {
		return p.Assemble()
	}
	src, err := os.ReadFile(name)
	if err != nil {
		return nil, fmt.Errorf("unsync-fault: %q is neither a library program nor a readable file: %w", name, err)
	}
	return asm.Assemble(string(src))
}

// render lays the campaign result out as a table: the overall tally
// first, then one row per injected space.
func render(res campaign.Result, stats *campaign.BatchStats) *report.Table {
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
	if stats != nil && stats.Lanes() > 0 {
		t.Note("batch engine: %d lanes (%d shortcut, %d lockstep, %d retired to scalar — %.1f%%)",
			stats.Lanes(), stats.Shortcut(), stats.Lockstep(), stats.Retired(), 100*stats.RetiredFrac())
	}
	return t
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
	fmt.Fprintf(os.Stderr, "unsync-fault: %v\n", err)
	os.Exit(1)
}
