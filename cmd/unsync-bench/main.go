// Command unsync-bench regenerates every table and figure of the
// paper's evaluation section.
//
// Usage:
//
//	unsync-bench [flags]
//
//	-run string     comma-separated experiments to run:
//	                table1,table2,table3,fig4,fig5,fig6,ser,roec,coverage,
//	                extensions,replicated,ablations,events,all
//	                (default "all"; "all" excludes replicated). "events"
//	                is the hardware-counter study: a topdown slot
//	                decomposition plus per-event counts and deltas vs the
//	                baseline for every scheme. An unknown name exits 2
//	-format string  output format: text, csv or markdown (default "text")
//	-quick          scaled-down windows and benchmark subset
//	-workers int    parallel simulation workers (default NumCPU)
//	-trials int     functional injection trials per ROEC campaign (default 40)
//	-charts         also draw text charts for the figures
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	unsync "github.com/cmlasu/unsync"
)

// clockNow is the single injectable wall clock of the tool. It feeds
// the per-experiment progress timing printed to stderr and nothing
// else: simulation results depend only on simulated cycles, so this is
// the one audited wall-clock read in the module.
//
//unsync:allow-wallclock progress timing on stderr only; never feeds simulation state
var clockNow = time.Now

// steps lists every experiment -run can name, in output order.
var steps = []string{"table1", "table2", "table3", "fig4", "fig5", "fig6",
	"ser", "roec", "coverage", "extensions", "replicated", "ablations", "events"}

// selectSteps parses a -run list into the set of steps to run. "all"
// selects every step but replicated, which multiplies the Fig 4 cost by
// the replica count and so runs only when named. Every name must be a
// step or "all".
func selectSteps(list string) (map[string]bool, error) {
	want := map[string]bool{}
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(strings.ToLower(name))
		switch {
		case name == "":
		case name == "all":
			for _, s := range steps {
				if s != "replicated" {
					want[s] = true
				}
			}
		case slices.Contains(steps, name):
			want[name] = true
		default:
			return nil, fmt.Errorf("unknown experiment %q in -run", name)
		}
	}
	if len(want) == 0 {
		return nil, fmt.Errorf("nothing selected by -run=%q", list)
	}
	return want, nil
}

func main() {
	runList := flag.String("run", "all", "experiments: "+strings.Join(steps, ",")+",all")
	format := flag.String("format", "text", "output format: text, csv, markdown")
	quick := flag.Bool("quick", false, "scaled-down smoke configuration")
	workers := flag.Int("workers", 0, "parallel workers (0 = NumCPU)")
	trials := flag.Int("trials", 40, "functional injection trials per ROEC campaign")
	charts := flag.Bool("charts", false, "also draw text charts for the figures")
	flag.Parse()
	want, err := selectSteps(*runList)
	if err != nil {
		fmt.Fprintf(os.Stderr, "unsync-bench: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}

	opts := unsync.DefaultOptions()
	if *quick {
		opts = unsync.QuickOptions()
	}
	if *workers > 0 {
		opts.Workers = *workers
	}

	render := func(t *unsync.Table) {
		switch *format {
		case "csv":
			fmt.Print(t.CSV())
		case "markdown":
			fmt.Print(t.Markdown())
		default:
			fmt.Print(t.Text())
		}
		fmt.Println()
	}

	step := func(name string, f func() error) {
		if !want[name] {
			return
		}
		start := clockNow()
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "unsync-bench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "[%s done in %v]\n\n", name, clockNow().Sub(start).Round(time.Millisecond))
	}

	step("table1", func() error {
		render(unsync.TableI())
		return nil
	})
	step("table2", func() error {
		_, t := unsync.TableII()
		render(t)
		return nil
	})
	step("table3", func() error {
		_, t := unsync.TableIII()
		render(t)
		return nil
	})
	step("fig4", func() error {
		res, err := unsync.Fig4(opts)
		if err != nil {
			return err
		}
		render(res.Render())
		if *charts {
			fmt.Println(res.Chart())
		}
		return nil
	})
	step("fig5", func() error {
		res, err := unsync.Fig5(opts)
		if err != nil {
			return err
		}
		render(res.Render())
		if *charts {
			fmt.Println(res.Chart())
		}
		return nil
	})
	step("fig6", func() error {
		res, err := unsync.Fig6(opts)
		if err != nil {
			return err
		}
		render(res.Render())
		if *charts {
			fmt.Println(res.Chart())
		}
		return nil
	})
	step("ser", func() error {
		res, err := unsync.SERSweep(opts)
		if err != nil {
			return err
		}
		render(res.Render())
		return nil
	})
	step("roec", func() error {
		res, err := unsync.ROEC(*trials)
		if err != nil {
			return err
		}
		render(res.Render())
		return nil
	})
	step("coverage", func() error {
		u, r, err := unsync.CoverageStudy(*trials, opts.Workers)
		if err != nil {
			return err
		}
		render(unsync.RenderCoverage("unsync", u))
		render(unsync.RenderCoverage("reunion", r))
		return nil
	})
	step("extensions", func() error {
		red, err := unsync.RedundancyStudy(opts, "gzip", nil)
		if err != nil {
			return err
		}
		render(red.Render())
		inter, err := unsync.ChipInterference(opts, nil, 0)
		if err != nil {
			return err
		}
		render(unsync.RenderInterference(inter))
		avf, err := unsync.AVFEstimate(opts)
		if err != nil {
			return err
		}
		render(unsync.RenderAVF(avf))
		en, err := unsync.EnergyStudy(opts)
		if err != nil {
			return err
		}
		render(unsync.RenderEnergy(en))
		return nil
	})
	step("replicated", func() error {
		rows, err := unsync.ReplicatedFig4(opts, 3)
		if err != nil {
			return err
		}
		render(unsync.RenderReplicated(rows))
		return nil
	})
	step("ablations", func() error {
		wp, err := unsync.AblationWritePolicy(opts)
		if err != nil {
			return err
		}
		render(unsync.RenderWritePolicy(wp))
		fw, err := unsync.AblationForwarding(opts)
		if err != nil {
			return err
		}
		render(unsync.RenderForwarding(fw))
		render(unsync.RenderDetection(unsync.AblationDetection()))
		return nil
	})
	step("events", func() error {
		res, err := unsync.Events(opts)
		if err != nil {
			return err
		}
		render(res.RenderTopdown())
		render(res.RenderEvents())
		return nil
	})
}
