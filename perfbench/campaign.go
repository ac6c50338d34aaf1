package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"github.com/cmlasu/unsync/internal/asm"
	"github.com/cmlasu/unsync/internal/campaign"
	"github.com/cmlasu/unsync/internal/fault"
	"github.com/cmlasu/unsync/internal/progs"
	"github.com/cmlasu/unsync/internal/stream"
)

// The campaign workload runs unsync-fault's defaults on the checksum
// program: an UnSync campaign interrupted at half and resumed, then a
// Reunion campaign sized to about a third of the iteration's wall time
// (every Reunion lane retires to the scalar path, ~25x slower).
const (
	campaignProg          = "checksum"
	campaignMaxSteps      = 20_000
	campaignUnSyncTrials  = 32768
	campaignReunionTrials = 512
	// planeEmitEvery is unsync-fault's progress-frame cadence.
	planeEmitEvery = 200 * time.Millisecond
)

// campaignEnv is the campaign workload's set-up product.
type campaignEnv struct {
	prog   *asm.Program
	golden uint64 // fault-free instructions of one program run
}

// assemble loads the workload program and its golden-run length.
func assemble() (campaignEnv, error) {
	p, ok := progs.ByName(campaignProg)
	if !ok {
		return campaignEnv{}, fmt.Errorf("no %q program", campaignProg)
	}
	prog, err := p.Assemble()
	if err != nil {
		return campaignEnv{}, err
	}
	g, err := fault.Golden(prog, campaignMaxSteps)
	if err != nil {
		return campaignEnv{}, err
	}
	return campaignEnv{prog: prog, golden: g.InstCount}, nil
}

// unsyncSpec and reunionSpec are the workload's two campaigns, as
// unsync-fault runs them with -workers nproc.
func (cfg config) unsyncSpec(trials int) campaign.Spec {
	return campaign.Spec{Scheme: campaign.SchemeUnSync, Trials: trials, Seed: cfg.seed,
		MaxSteps: campaignMaxSteps, Workers: cfg.workers}
}

func (cfg config) reunionSpec() campaign.Spec {
	s := cfg.unsyncSpec(campaignReunionTrials)
	s.Scheme = campaign.SchemeReunion
	return s
}

// probes are the traced run's counters at the layer boundaries.
type probes struct {
	tr       *tracer
	parent   int
	stats    campaign.BatchStats
	wait     atomic.Int64 // ns workers spent inside the Observer
	dropped  atomic.Uint64
	dlqDepth atomic.Uint64
}

// runCampaignSpec runs one campaign with an optional streaming plane
// (DLQ sidecar at dlq, "" for none) as its Observer, the way
// unsync-fault wires -dlq.
func runCampaignSpec(prog *asm.Program, spec campaign.Spec, dlq string, pr *probes, name string) (campaign.Result, error) {
	var plane *stream.Plane
	if dlq != "" {
		var err error
		plane, err = stream.NewPlane(stream.PlaneConfig{
			DLQ: dlq, Key: spec.Normalized().Key(campaign.ProgHash(prog)), EmitEvery: planeEmitEvery,
		})
		if err != nil {
			return campaign.Result{}, err
		}
		spec.Observer = plane.Observe
		if pr != nil {
			spec.Observer = func(r campaign.TrialRecord) {
				start := clockNow()
				plane.Observe(r)
				pr.wait.Add(int64(clockNow().Sub(start)))
			}
		}
	}
	var id int
	if pr != nil {
		spec.Stats = &pr.stats
		id = pr.tr.begin(name, pr.parent)
	}
	res, err := campaign.RunContext(context.Background(), prog, spec)
	if plane != nil {
		err = errors.Join(err, plane.Close())
		if pr != nil {
			pr.dropped.Add(plane.Dropped())
			pr.dlqDepth.Add(plane.DLQDepth())
		}
	}
	if pr != nil {
		pr.tr.end(id)
	}
	return res, err
}

// campaignIteration runs the workload's three campaigns in dir and
// checks them. It returns the trials completed and their cost.
func campaignIteration(cfg config, ck *checker, env campaignEnv, dir string, pr *probes) (int, cost) {
	us := cfg.unsyncSpec(campaignUnSyncTrials)
	us.Checkpoint = filepath.Join(dir, "unsync.jsonl")
	dlq := filepath.Join(dir, "unsync.dlq")
	re := cfg.reunionSpec()
	re.Checkpoint = filepath.Join(dir, "reunion.jsonl")

	var resU, resR campaign.Result
	var errHalf, errU, errR error
	c := measure(func() {
		half := us
		half.StopAfter = campaignUnSyncTrials / 2
		_, errHalf = runCampaignSpec(env.prog, half, dlq, pr, "campaign.RunContext.unsync.interrupted")
		us.Resume = true
		resU, errU = runCampaignSpec(env.prog, us, dlq, pr, "campaign.RunContext.unsync.resumed")
		resR, errR = runCampaignSpec(env.prog, re, filepath.Join(dir, "reunion.dlq"), pr, "campaign.RunContext.reunion")
	})

	ck.expect(errors.Is(errHalf, campaign.ErrInterrupted), "interrupted unsync campaign: want ErrInterrupted, got %v", errHalf)
	checkCampaign(ck, "unsync", resU, errU, us.Checkpoint)
	checkCampaign(ck, "reunion", resR, errR, re.Checkpoint)
	return resU.Ran + resR.Ran, c
}

// checkCampaign counts a campaign's trials and checks its Result and
// index-sorted journal against the run's earlier digests and, at the
// default seed, the committed references.
func checkCampaign(ck *checker, scheme string, res campaign.Result, err error, journal string) {
	if !ck.op(err, scheme+" campaign") {
		return
	}
	ck.ops(res.Ran - res.Failed)
	ck.failures(res.Failed, "%s campaign: %d failed trials", scheme, res.Failed)
	ck.reference(scheme+".result", digestOf(res))
	if journal == "" {
		return
	}
	raw, err := os.ReadFile(journal)
	if !ck.op(err, scheme+" journal") {
		return
	}
	canon, err := canonicalJournal(raw)
	if ck.op(err, scheme+" journal") {
		ck.reference(scheme+".journal", digestBytes(canon))
	}
}

// verifyUnSync runs the workload's UnSync campaign once more,
// uninterrupted, with one worker and the plane off. Its Result must
// equal the resumed campaigns' and its journal bytes must equal their
// index-sorted journals (plane on): the resume and plane-on/off
// identities, checked at every seed.
func verifyUnSync(cfg config, ck *checker, env campaignEnv, dir string) {
	spec := cfg.unsyncSpec(campaignUnSyncTrials)
	spec.Workers = 1
	spec.Checkpoint = filepath.Join(dir, "unsync-single.jsonl")
	res, err := campaign.RunContext(context.Background(), env.prog, spec)
	if !ck.op(err, "uninterrupted unsync campaign") {
		return
	}
	ck.reference("unsync.result", digestOf(res))
	raw, err := os.ReadFile(spec.Checkpoint)
	if ck.op(err, "uninterrupted unsync journal") {
		ck.reference("unsync.journal", digestBytes(raw))
	}
}

// campaignSetup assembles the program, runs its golden pass and warms
// the lane engine, journal and plane with a small campaign of each
// scheme.
func campaignSetup(cfg config) (campaignEnv, error) {
	env, err := assemble()
	if err != nil {
		return env, err
	}
	dir, err := os.MkdirTemp(cfg.work, "setup-")
	if err != nil {
		return env, err
	}
	defer os.RemoveAll(dir)
	warm := cfg.unsyncSpec(1024)
	warm.Checkpoint = filepath.Join(dir, "unsync.jsonl")
	if _, err := runCampaignSpec(env.prog, warm, filepath.Join(dir, "unsync.dlq"), nil, ""); err != nil {
		return env, err
	}
	warm = cfg.reunionSpec()
	warm.Trials = 64
	_, err = runCampaignSpec(env.prog, warm, "", nil, "")
	return env, err
}

func runCampaign(cfg config, ck *checker) (metrics, error) {
	env, setupS, err := timeSetup(cfg, func() (campaignEnv, error) { return campaignSetup(cfg) }, func(campaignEnv) {})
	if err != nil {
		return nil, err
	}
	m := metrics{}
	if cfg.trace {
		return m, traceCampaign(cfg, ck, env, m)
	}
	m.set("setup_s", "s", setupS)
	trials := cfg.throughput("trials")
	cfg.repeat(func() bool {
		return ck.op(inTempDir(cfg.work, func(dir string) {
			n, c := campaignIteration(cfg, ck, env, dir, nil)
			trials.add(float64(n), c)
		}), "iteration directory")
	})
	ck.op(inTempDir(cfg.work, func(dir string) { verifyUnSync(cfg, ck, env, dir) }), "verify directory")
	rate := trials.report(m, "trials_per_cpu_s", "1/cpu-s")
	// Derived: each trial stands for one golden run of the program.
	m.set("sim_minst_per_cpu_s", "Minst/cpu-s", rate*float64(env.golden)/1e6)
	return m, nil
}

// tracedRepeats is how many traced and untraced iterations (alternated)
// and on/off unit-cost pairs the traced campaign and fleet runs make;
// each per-layer value is the median.
const tracedRepeats = 3

// traceCampaign is the traced run of the campaign workload: traced and
// untraced iterations alternate for the tracing overhead, then each
// layer's unit cost comes from runs that differ only in that layer
// (journal on/off, plane on/off, resume over a complete journal).
func traceCampaign(cfg config, ck *checker, env campaignEnv, m metrics) error {
	tr := newTracer()
	pr := &probes{tr: tr}
	var plain, traced []float64
	var tracedWall float64
	for i := 0; i < tracedRepeats; i++ {
		ck.op(inTempDir(cfg.work, func(dir string) {
			_, c := campaignIteration(cfg, ck, env, dir, nil)
			plain = append(plain, c.host)
		}), "iteration directory")
		ck.op(inTempDir(cfg.work, func(dir string) {
			tr.newRun()
			pr.parent = tr.begin("campaign.iteration", 0)
			_, c := campaignIteration(cfg, ck, env, dir, pr)
			tr.end(pr.parent)
			traced = append(traced, c.host)
			tracedWall += c.wall
		}), "iteration directory")
	}
	m.set("bench.tracing_overhead_frac", "ratio", median(traced)/median(plain)-1)
	m.set("stream.observe_wait_frac", "ratio", float64(pr.wait.Load())/1e9/(float64(cfg.workers)*tracedWall))
	m.set("stream.dropped", "count", float64(pr.dropped.Load()))
	m.set("stream.dlq_depth", "count", float64(pr.dlqDepth.Load()))
	lanes := float64(pr.stats.Lanes())
	m.set("fault.shortcut_frac", "ratio", float64(pr.stats.Shortcut())/lanes)
	m.set("fault.lockstep_frac", "ratio", float64(pr.stats.Lockstep())/lanes)
	m.set("fault.retired_frac", "ratio", float64(pr.stats.Retired())/lanes)

	m.set("emu.golden_ns_per_step", "ns", goldenNsPerStep(tr, env))
	ck.op(inTempDir(cfg.work, func(dir string) { campaignUnitCosts(cfg, ck, env, dir, tr, m) }), "unit-cost directory")
	hostMetrics(m)
	return tr.write(cfg.spanPath)
}

// goldenNsPerStep times fault.Golden, the fault-free emulator pass every
// campaign and shard starts with, per emulated instruction.
func goldenNsPerStep(tr *tracer, env campaignEnv) float64 {
	const reps = 200
	id := tr.begin("fault.Golden", 0)
	for i := 0; i < reps; i++ {
		if _, err := fault.Golden(env.prog, campaignMaxSteps); err != nil {
			break
		}
	}
	return float64(tr.end(id)) / float64(reps*env.golden)
}

// campaignUnitCosts sets the campaign, fault and stream unit costs, in
// CPU time, from campaigns that differ in one layer at a time, each
// repeated and reduced to medians. Every run's Result must match the
// workload's.
func campaignUnitCosts(cfg config, ck *checker, env campaignEnv, dir string, tr *tracer, m metrics) {
	const n = campaignUnSyncTrials
	var bare, journal, plane, replay, reBare, allocs []float64
	var journalBytes int64
	timedRun := func(name string, spec campaign.Spec, dlq string, scheme string) float64 {
		var res campaign.Result
		var err error
		id := tr.begin(name, 0)
		c := measure(func() { res, err = runCampaignSpec(env.prog, spec, dlq, nil, "") })
		tr.end(id)
		checkCampaign(ck, scheme, res, err, "")
		return c.cpu
	}
	for i := 0; i < tracedRepeats; i++ {
		path := filepath.Join(dir, fmt.Sprintf("unsync-%d.jsonl", i))
		bare = append(bare, timedRun("campaign.RunContext.bare", cfg.unsyncSpec(n), "", "unsync"))
		reBare = append(reBare, timedRun("campaign.RunContext.reunion.bare", cfg.reunionSpec(), "", "reunion"))

		spec := cfg.unsyncSpec(n)
		spec.Checkpoint = path
		journal = append(journal, timedRun("campaign.RunContext.journal", spec, "", "unsync"))
		if st, err := os.Stat(path); ck.op(err, "journal size") {
			journalBytes = st.Size()
		}
		spec.Resume = true
		replay = append(replay, timedRun("campaign.RunContext.replay", spec, "", "unsync"))

		spec = cfg.unsyncSpec(n)
		spec.Checkpoint = path + ".plane"
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		plane = append(plane, timedRun("campaign.RunContext.journal_plane", spec, path+".dlq", "unsync"))
		runtime.ReadMemStats(&after)
		allocs = append(allocs, float64(after.TotalAlloc-before.TotalAlloc)/n)
	}
	kilo := float64(n) / 1000
	m.set("fault.unsync_ns_per_trial", "ns", median(bare)*1e9/n)
	m.set("fault.reunion_ns_per_trial", "ns", median(reBare)*1e9/campaignReunionTrials)
	m.set("campaign.journal_s_per_ktrial", "s", (median(journal)-median(bare))/kilo)
	m.set("campaign.replay_ns_per_record", "ns", median(replay)*1e9/n)
	m.set("campaign.journal_bytes_per_trial", "B", float64(journalBytes)/n)
	m.set("campaign.alloc_bytes_per_trial", "B", median(allocs))
	m.set("stream.plane_s_per_ktrial", "s", (median(plane)-median(journal))/kilo)
}
