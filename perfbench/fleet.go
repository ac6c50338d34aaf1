package main

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/cmlasu/unsync/internal/campaign"
	"github.com/cmlasu/unsync/internal/fabric"
	"github.com/cmlasu/unsync/internal/serve"
	"github.com/cmlasu/unsync/internal/stream"
)

// The fleet workload runs an UnSync checksum campaign of fleetTrials
// through a fabric coordinator over fleetNodes in-process serve shard
// workers, each running its shards with one campaign worker.
const (
	fleetTrials = 40000
	fleetNodes  = 2
	// leaseTimeout is unsync-fleet's default heartbeat deadline.
	leaseTimeout = 60 * time.Second
)

// fleetEnv is the fleet workload's set-up product: running workers and
// the coordinator's HTTP client.
type fleetEnv struct {
	campaignEnv
	params  serve.CampaignParams
	servers []*serve.Server
	https   []*httptest.Server
	urls    []string
	client  *http.Client
	shards  *handlerTimer // nil outside the traced run
}

// close stops the workers and waits for them to drain.
func (e *fleetEnv) close() {
	if e.client != nil {
		e.client.CloseIdleConnections()
	}
	for _, ts := range e.https {
		ts.Close()
	}
	for _, s := range e.servers {
		_ = s.Drain(context.Background()) // no jobs run on shard workers; nothing to lose
	}
}

// fleetSetup assembles the program, starts the shard workers on
// loopback listeners and warms them with a small fleet campaign.
func fleetSetup(cfg config) (*fleetEnv, error) {
	ce, err := assemble()
	if err != nil {
		return nil, err
	}
	env := &fleetEnv{
		campaignEnv: ce,
		params: serve.CampaignParams{Prog: campaignProg, Scheme: campaign.SchemeUnSync, Trials: fleetTrials,
			Seed: cfg.seed, MaxSteps: campaignMaxSteps, Workers: 1},
		client: &http.Client{Transport: &http.Transport{ResponseHeaderTimeout: leaseTimeout}},
	}
	if cfg.trace {
		env.shards = &handlerTimer{}
	}
	for i := 0; i < fleetNodes; i++ {
		dir, err := os.MkdirTemp(cfg.work, "node-")
		if err != nil {
			env.close()
			return nil, err
		}
		s, err := serve.New(serve.Config{StateDir: dir, EnableShards: true})
		if err != nil {
			env.close()
			return nil, err
		}
		env.servers = append(env.servers, s)
		h := s.Handler()
		if env.shards != nil {
			h = env.shards.wrap(h)
		}
		ts := httptest.NewServer(h)
		env.https = append(env.https, ts)
		env.urls = append(env.urls, ts.URL)
	}
	var warmErr error
	err = inTempDir(cfg.work, func(dir string) {
		warm := env.params
		warm.Trials = 2048
		_, _, warmErr = fleetRun(env, warm, dir, env.client, nil)
	})
	if err = errors.Join(err, warmErr); err != nil {
		env.close()
		return nil, err
	}
	return env, nil
}

// fleetRun runs one coordinator over the workers with a streaming plane
// and returns its Result and lease snapshot.
func fleetRun(env *fleetEnv, params serve.CampaignParams, dir string, client *http.Client, pr *probes) (campaign.Result, fabric.Snapshot, error) {
	spec := params.Spec()
	plane, err := stream.NewPlane(stream.PlaneConfig{
		DLQ:       filepath.Join(dir, "fleet.dlq"),
		Key:       spec.Normalized().Key(campaign.ProgHash(env.prog)),
		EmitEvery: planeEmitEvery,
	})
	if err != nil {
		return campaign.Result{}, fabric.Snapshot{}, err
	}
	coord, err := fabric.New(fabric.Config{
		Workers: env.urls,
		Params:  params,
		Journal: filepath.Join(dir, "coordinator.jsonl"),
		Merged:  filepath.Join(dir, "merged.jsonl"),
		Client:  client,
		Plane:   plane,
	})
	if err != nil {
		return campaign.Result{}, fabric.Snapshot{}, errors.Join(err, plane.Close())
	}
	var id int
	if pr != nil {
		id = pr.tr.begin("fabric.Coordinator.Run", pr.parent)
	}
	res, err := coord.Run(context.Background())
	if pr != nil {
		pr.tr.end(id)
	}
	err = errors.Join(err, plane.Close())
	if pr != nil {
		pr.dropped.Add(plane.Dropped())
		pr.dlqDepth.Add(plane.DLQDepth())
	}
	return res, coord.Snapshot(), err
}

// fleetIteration runs and checks one fleet campaign in dir and returns
// its lease snapshot and cost.
func fleetIteration(ck *checker, env *fleetEnv, dir string, client *http.Client, pr *probes) (fabric.Snapshot, cost) {
	var res campaign.Result
	var snap fabric.Snapshot
	var err error
	c := measure(func() { res, snap, err = fleetRun(env, env.params, dir, client, pr) })
	checkFleet(ck, res, err, filepath.Join(dir, "merged.jsonl"))
	return snap, c
}

// checkFleet counts the fleet's trials and checks its Result and merged
// journal. Both digests share names with the single-node reference run
// (verifyFleet), so the fleet must match it byte for byte.
func checkFleet(ck *checker, res campaign.Result, err error, journal string) {
	if !ck.op(err, "fleet campaign") {
		return
	}
	ck.ops(res.Ran - res.Failed)
	ck.failures(res.Failed, "fleet campaign: %d failed trials", res.Failed)
	ck.reference("result", digestOf(res))
	raw, err := os.ReadFile(journal)
	if ck.op(err, "fleet journal") {
		ck.reference("journal", digestBytes(raw))
	}
}

// verifyFleet runs the fleet's campaign on one node with one worker;
// the fleet's merged journal must be byte-identical to its checkpoint.
func verifyFleet(ck *checker, env *fleetEnv, dir string) {
	spec := env.params.Spec()
	spec.Checkpoint = filepath.Join(dir, "single.jsonl")
	res, err := campaign.RunContext(context.Background(), env.prog, spec)
	checkFleet(ck, res, err, spec.Checkpoint)
}

func runFleet(cfg config, ck *checker) (metrics, error) {
	env, setupS, err := timeSetup(cfg, func() (*fleetEnv, error) { return fleetSetup(cfg) },
		func(e *fleetEnv) { e.close() })
	if err != nil {
		return nil, err
	}
	defer env.close()
	m := metrics{}
	if cfg.trace {
		return m, traceFleet(cfg, ck, env, m)
	}
	m.set("setup_s", "s", setupS)
	trials := cfg.throughput("trials")
	cfg.repeat(func() bool {
		return ck.op(inTempDir(cfg.work, func(dir string) {
			_, c := fleetIteration(ck, env, dir, env.client, nil)
			trials.add(fleetTrials, c)
		}), "iteration directory")
	})
	ck.op(inTempDir(cfg.work, func(dir string) { verifyFleet(ck, env, dir) }), "verify directory")
	rate := trials.report(m, "trials_per_cpu_s", "1/cpu-s")
	// Derived: each trial stands for one golden run of the program.
	m.set("sim_minst_per_cpu_s", "Minst/cpu-s", rate*float64(env.golden)/1e6)
	return m, nil
}

// traceFleet is the traced run of the fleet workload: untraced and
// traced iterations alternate; the traced ones read the lease streams
// through a timing transport and the workers through a timing handler.
func traceFleet(cfg config, ck *checker, env *fleetEnv, m metrics) error {
	tr := newTracer()
	pr := &probes{tr: tr}
	lt := &leaseTimer{base: env.client.Transport, tr: tr}
	client := &http.Client{Transport: lt}
	var plain, traced, leases, splits, failures, dups, tails []float64
	var tracedWall float64
	for i := 0; i < tracedRepeats; i++ {
		ck.op(inTempDir(cfg.work, func(dir string) {
			_, c := fleetIteration(ck, env, dir, env.client, nil)
			plain = append(plain, c.host)
		}), "iteration directory")

		env.shards.active.Store(true)
		ck.op(inTempDir(cfg.work, func(dir string) {
			tr.newRun()
			pr.parent = tr.begin("fleet.iteration", 0)
			lt.parent.Store(int64(pr.parent))
			snap, c := fleetIteration(ck, env, dir, client, pr)
			tr.end(pr.parent)
			traced = append(traced, c.host)
			tracedWall += c.wall
			leases = append(leases, float64(snap.Leases))
			splits = append(splits, float64(snap.Splits))
			failures = append(failures, float64(snap.Failures))
			dups = append(dups, float64(snap.Duplicates)/fleetTrials)
		}), "iteration directory")
		env.shards.active.Store(false)
		spans := tr.snapshot()
		for _, s := range spans {
			if s.Name == "fabric.Coordinator.Run" && s.Run == spans[len(spans)-1].Run {
				tails = append(tails, float64(s.End-lt.lastRead.Load())/1e9)
			}
		}
	}
	ck.op(inTempDir(cfg.work, func(dir string) { verifyFleet(ck, env, dir) }), "verify directory")

	records := float64(tracedRepeats*fleetTrials) * (1 + median(dups))
	streamNs, read := float64(sumDur(tr.snapshot(), "fabric.lease")), float64(lt.readNs.Load())
	m.set("bench.tracing_overhead_frac", "ratio", median(traced)/median(plain)-1)
	m.set("fabric.read_wait_frac", "ratio", read/streamNs)
	m.set("fabric.ingest_ns_per_record", "ns", (streamNs-read)/records)
	m.set("fabric.dup_frac", "ratio", median(dups))
	m.set("fabric.wire_bytes_per_trial", "B", float64(lt.bytes.Load())/float64(tracedRepeats*fleetTrials))
	m.set("fabric.tail_s", "s", median(tails))
	m.set("fabric.leases", "count", median(leases))
	m.set("fabric.splits", "count", median(splits))
	m.set("fabric.failures", "count", median(failures))
	busy := float64(env.shards.busyNs.Load())
	m.set("serve.shard_busy_frac", "ratio", busy/1e9/(fleetNodes*tracedWall))
	m.set("serve.shard_ns_per_trial", "ns", busy/float64(tracedRepeats*fleetTrials))
	m.set("stream.dropped", "count", float64(pr.dropped.Load()))
	m.set("stream.dlq_depth", "count", float64(pr.dlqDepth.Load()))
	m.set("emu.golden_ns_per_step", "ns", goldenNsPerStep(tr, env.campaignEnv))
	hostMetrics(m)
	return tr.write(cfg.spanPath)
}

// handlerTimer sums the time a worker spends serving shard leases while
// active.
type handlerTimer struct {
	active atomic.Bool
	busyNs atomic.Int64
}

func (t *handlerTimer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.active.Load() || r.URL.Path != "/api/v1/shards" {
			h.ServeHTTP(w, r)
			return
		}
		start := clockNow()
		h.ServeHTTP(w, r)
		t.busyNs.Add(int64(clockNow().Sub(start)))
	})
}

// leaseTimer is the coordinator's traced transport: each lease stream is
// a span from the request to the body's Close, and every body Read is
// timed, so stream time splits into waiting on the worker (Read) and
// the coordinator's own decode, dedupe and journal work (the rest).
type leaseTimer struct {
	base     http.RoundTripper
	tr       *tracer
	parent   atomic.Int64
	readNs   atomic.Int64
	bytes    atomic.Int64
	lastRead atomic.Int64 // tracer-relative ns of the latest Read
}

func (lt *leaseTimer) RoundTrip(req *http.Request) (*http.Response, error) {
	id := lt.tr.begin("fabric.lease", int(lt.parent.Load()))
	resp, err := lt.base.RoundTrip(req)
	if err != nil {
		lt.tr.end(id)
		return resp, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, lt: lt, span: id}
	return resp, nil
}

// timedBody times Reads on a lease stream and closes its span once.
type timedBody struct {
	io.ReadCloser
	lt   *leaseTimer
	span int
	once sync.Once
}

func (b *timedBody) Read(p []byte) (int, error) {
	start := clockNow()
	n, err := b.ReadCloser.Read(p)
	now := clockNow()
	b.lt.readNs.Add(int64(now.Sub(start)))
	b.lt.bytes.Add(int64(n))
	for at := int64(now.Sub(b.lt.tr.t0)); n > 0; {
		last := b.lt.lastRead.Load()
		if at <= last || b.lt.lastRead.CompareAndSwap(last, at) {
			break
		}
	}
	return n, err
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.lt.tr.end(b.span) })
	return err
}
