package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/minipy"
	"repro/internal/ps"
	"repro/internal/tensor"
)

const (
	// distSetupReps is how many cluster boots the untraced run times.
	distSetupReps = 15
	// distShards is the parameter server's shard count.
	distShards = 2
	// distLR is the server-side SGD rate: 0.05 per replica, scaled
	// linearly with the replica count.
	distLR = 0.05 * nproc
	// distRoundsPerSecond is the nominal barriered round rate (2-core x86
	// box) that sizes the fixed round count of a run.
	distRoundsPerSecond = 200
	// distLossWindow is how many rounds are averaged at each end of the
	// run for the falling-loss check.
	distLossWindow = 20
	// pullCalls is how many full-shard pulls per measured second the
	// untraced run makes for max_rps, in pullBlocks blocks of pullBursts
	// bursts; a block follows each of pullBlocks equal parts of the rounds,
	// so the pulls are spread over the run.
	pullCalls, pullBlocks, pullBursts = 1000, 3, 10
)

// rpcTransport wraps the parameter-server HTTP client: it counts Pull and
// PushGrad calls and, in the traced run, records a span and the
// client-side latency of each, parented under the worker step whose
// context carries the benchmark's span ID.
type rpcTransport struct {
	ps.Transport
	tr   *tracer
	rpcs atomic.Int64

	mu         sync.Mutex
	pull, push []float64 // ms
}

func (t *rpcTransport) Pull(ctx context.Context, shard int, have int64) (map[string]*tensor.Tensor, int64, int64, error) {
	t.rpcs.Add(1)
	sp := t.tr.start("ps.pull", spanFrom(ctx), 0)
	t0 := time.Now()
	params, version, step, err := t.Transport.Pull(ctx, shard, have)
	t.observe(&t.pull, t0)
	sp.end()
	return params, version, step, err
}

func (t *rpcTransport) PushGrad(ctx context.Context, shard, worker int, step int64, grads map[string]*tensor.Tensor) (int64, error) {
	t.rpcs.Add(1)
	sp := t.tr.start("ps.push", spanFrom(ctx), 0)
	t0 := time.Now()
	v, err := t.Transport.PushGrad(ctx, shard, worker, step, grads)
	t.observe(&t.push, t0)
	sp.end()
	return v, err
}

func (t *rpcTransport) observe(into *[]float64, t0 time.Time) {
	if !t.tr.enabled() {
		return
	}
	d := float64(time.Since(t0)) / 1e6
	t.mu.Lock()
	*into = append(*into, d)
	t.mu.Unlock()
}

// distCluster is one booted cluster: an in-process ps.Server behind a
// real loopback HTTP listener, and nproc LeNet replicas reaching it
// through ps.Client.
type distCluster struct {
	server  *ps.Server
	ts      *httptest.Server
	hc      *http.Client
	rpc     *rpcTransport
	cluster *ps.Cluster
	steps   []ps.StepFunc
	parse   time.Duration
	round   int
	// base holds each worker engine's registry before its first step.
	base []promSnapshot
}

// distEngineConfig is a replica's engine: the shipped JANUS engine,
// host-bound, with the same seed on every replica so their initial
// parameters agree.
func distEngineConfig(seed uint64) core.Config { return trainConfig(seed, core.Janus) }

func bootCluster(seed uint64, tr *tracer) (*distCluster, error) {
	server, err := ps.NewServer(ps.Config{Shards: distShards, LR: distLR, Workers: nproc})
	if err != nil {
		return nil, err
	}
	d := &distCluster{server: server, ts: httptest.NewServer(ps.NewHandler(server)),
		steps: make([]ps.StepFunc, nproc), base: make([]promSnapshot, nproc)}
	d.hc = &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
		MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc, DisableCompression: true}}
	d.rpc = &rpcTransport{Transport: ps.NewClient(d.ts.URL, d.hc), tr: tr}
	lenet := trainPrograms[0]
	d.cluster, err = ps.NewClusterOver(d.rpc, ps.ClusterConfig{
		Workers: nproc, Shards: distShards, LR: distLR, Engine: distEngineConfig(seed),
		Build: func(id int, e *core.Engine) (ps.StepFunc, error) {
			base, err := scrape(e.Registry().WriteText)
			if err != nil {
				return nil, err
			}
			d.base[id] = base
			feed := lenet.feeder(seed)
			sp := tr.start("minipy.parse", 0, int64(id))
			t0 := time.Now()
			defs, err := minipy.Parse(lenet.defs)
			var driver *minipy.Program
			if err == nil {
				driver, err = minipy.Parse(lenet.driver)
			}
			d.parse += time.Since(t0) // workers are built one after another
			sp.end()
			if err != nil {
				return nil, err
			}
			sp = tr.start("core.load", 0, int64(id))
			err = e.RunProgram(defs)
			sp.end()
			if err != nil {
				return nil, err
			}
			step := func(i int) (float64, error) {
				feed(e, i)
				if err := e.RunProgram(driver); err != nil {
					return 0, err
				}
				return readLoss(e)
			}
			d.steps[id] = step
			return step, nil
		},
	})
	if err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

func (d *distCluster) close() {
	d.hc.CloseIdleConnections()
	d.ts.Close()
}

// roundStats is one barriered round.
type roundStats struct {
	wall    time.Duration
	compute []time.Duration // per worker: its step body alone
	loss    float64         // mean over workers
	err     error
}

// runRound runs one barriered round: every worker, on its own goroutine,
// pulls, runs its step (streaming gradient pushes) and waits for its
// pushes; worker w takes global batch round*nproc+w.
func (d *distCluster) runRound(tr *tracer) roundStats {
	r := d.round
	d.round++
	rs := roundStats{compute: make([]time.Duration, nproc)}
	losses := make([]float64, nproc)
	errs := make([]error, nproc)
	root := tr.reserve()
	t0 := time.Now()
	var wg sync.WaitGroup
	for wi, w := range d.cluster.Workers() {
		wg.Add(1)
		go func(wi int, w *ps.Worker) {
			defer wg.Done()
			ws := tr.reserve()
			ctx := withSpan(context.Background(), ws)
			w0 := time.Now()
			losses[wi], _, errs[wi] = w.DoCtx(ctx, func() (float64, error) {
				sp := tr.start("ps.compute", ws, int64(r))
				c0 := time.Now()
				loss, err := d.steps[wi](r*nproc + wi)
				rs.compute[wi] = time.Since(c0)
				sp.end()
				return loss, err
			})
			tr.addID(ws, "ps.worker_step", root, int64(r), w0, time.Now())
		}(wi, w)
	}
	wg.Wait()
	rs.wall = time.Since(t0)
	tr.addID(root, "bench.round", 0, int64(r), t0, t0.Add(rs.wall))
	for wi := range errs {
		if errs[wi] != nil && rs.err == nil {
			rs.err = fmt.Errorf("round %d worker %d: %w", r, wi, errs[wi])
		}
		rs.loss += losses[wi] / nproc
	}
	return rs
}

// graphReady reports whether every replica has run a graph step.
func (d *distCluster) graphReady() bool {
	for _, w := range d.cluster.Workers() {
		if w.Engine().Stats().GraphSteps == 0 {
			return false
		}
	}
	return true
}

// bootToGraph boots a cluster and runs rounds until every replica has run
// its first graph step, returning the elapsed time.
func bootToGraph(seed uint64, tr *tracer, res *result) (*distCluster, time.Duration, []float64, error) {
	t0 := time.Now()
	d, err := bootCluster(seed, tr)
	if err != nil {
		return nil, 0, nil, err
	}
	var losses []float64
	for !d.graphReady() {
		if d.round == 50 {
			d.close()
			return nil, 0, nil, fmt.Errorf("no graph round after 50 rounds")
		}
		rs := d.runRound(tr)
		res.check(rs.err == nil)
		losses = append(losses, rs.loss)
	}
	return d, time.Since(t0), losses, nil
}

// distPhase is the measured phase of a dist run.
type distPhase struct {
	rounds  []roundStats
	wall    time.Duration
	mallocs uint64
}

// runPhase runs n timed rounds; calibration samples run between rounds,
// outside the timed intervals.
func (d *distCluster) runPhase(n int, tr *tracer, cal *calibrator, res *result) distPhase {
	p := distPhase{}
	m0 := mallocs()
	for i := 0; i < n; i++ {
		cal.tick()
		rs := d.runRound(tr)
		res.check(rs.err == nil)
		p.rounds = append(p.rounds, rs)
		p.wall += rs.wall
	}
	p.mallocs = mallocs() - m0
	return p
}

func runDist(cfg runConfig) (*result, error) {
	res := &result{metrics: map[string]float64{}}
	m := res.metrics
	nRounds := max(100, int(distRoundsPerSecond*cfg.seconds))
	var heap *heapSampler
	var d *distCluster
	var losses []float64
	var baseWall time.Duration
	var boots []float64
	cal := newCalibrator()
	if err := cal.startEcho(); err != nil {
		return nil, err
	}
	defer cal.close()
	if !cfg.traced {
		heap = startHeapSampler()
		for r := 0; r < distSetupReps; r++ {
			if d != nil {
				d.close()
			}
			cal.sample()
			var took time.Duration
			var err error
			if d, took, losses, err = bootToGraph(cfg.seed, nil, res); err != nil {
				return nil, err
			}
			boots = append(boots, took.Seconds())
		}
	} else {
		// Untraced baseline of the measured phase, on its own cluster.
		b, _, _, err := bootToGraph(cfg.seed, nil, res)
		if err != nil {
			return nil, err
		}
		baseWall = b.runPhase(nRounds, nil, nil, res).wall
		b.close()
		cfg.tr.enable(true)
		if d, _, losses, err = bootToGraph(cfg.seed, cfg.tr, res); err != nil {
			return nil, err
		}
	}
	defer d.close()
	before := d.scrape()
	srvBefore, err := scrape(d.server.Registry().WriteText)
	if err != nil {
		return nil, err
	}
	rpc0 := d.rpc.rpcs.Load()
	parts := 1
	if !cfg.traced {
		parts = pullBlocks
	}
	var ph distPhase
	var roundsKernel []float64
	pulls := &pullStats{}
	for k := 0; k < parts; k++ {
		mk := cal.mark()
		part := d.runPhase((k+1)*nRounds/parts-k*nRounds/parts, cfg.tr, cal, res)
		roundsKernel = append(roundsKernel, cal.samples[mk:]...)
		ph.rounds = append(ph.rounds, part.rounds...)
		ph.wall += part.wall
		ph.mallocs += part.mallocs
		if !cfg.traced {
			d.pullBlock(int(pullCalls*cfg.seconds)/(pullBlocks*pullBursts), pulls, cal, res)
		}
	}
	roundsSlow := cal.slowdownOf(roundsKernel)
	cfg.tr.enable(false)
	for _, rs := range ph.rounds {
		losses = append(losses, rs.loss)
	}

	var roundMs, computeMs []float64
	var walls []time.Duration
	exposed := 0.0
	for _, rs := range ph.rounds {
		walls = append(walls, rs.wall)
		roundMs = append(roundMs, float64(rs.wall)/1e6)
		slowest := time.Duration(0)
		for _, c := range rs.compute {
			computeMs = append(computeMs, float64(c)/1e6)
			slowest = max(slowest, c)
		}
		exposed += float64(rs.wall-slowest) / 1e6
	}
	items := chunkRate(walls, float64(nproc*trainPrograms[0].items), rateChunks)
	res.note("dist %d replicas x %d shards over HTTP: %d rounds, %.0f images/s, round p50 %.3f ms p99 %.3f ms",
		nproc, distShards, nRounds, items, percentile(roundMs, 50), percentile(roundMs, 99))

	if !cfg.traced {
		// Each phase is scaled by the host's slowdown over that phase.
		setupSlow := cal.slowdownOf(cal.samples[:distSetupReps])
		pullRate, pullsSlow := median(pulls.rates), cal.slowdownOf(pulls.kernel)
		m["peak_heap_mb"] = heap.stopMB()
		res.note("dist boot-to-graph seconds: %s", spreadNote(boots))
		res.note("dist PS pull saturation: %d pulls in %d bursts over %d connections, median %.0f pulls/s",
			pulls.n, len(pulls.rates), nproc, pullRate)
		res.note("dist unscaled: items_per_s %.1f latency_p50_ms %.4f max_rps %.1f setup_s %.5f; host slowdown: set-up %.3f, rounds %.3f, pulls %.3f (%d kernel samples)",
			items, percentile(roundMs, 50), pullRate, median(boots), setupSlow, roundsSlow, pullsSlow, len(cal.samples))
		m["setup_s"] = median(boots) / setupSlow
		m["items_per_s"] = items * roundsSlow
		m["latency_p50_ms"] = percentile(roundMs, 50) / roundsSlow
		m["max_rps"] = pullRate * pullsSlow
	} else {
		m["obs.trace_overhead_ratio"] = ph.wall.Seconds() / baseWall.Seconds()
		m["bench.latency_p99_ms"] = percentile(roundMs, 99)
		after := d.scrape()
		srvAfter, err := scrape(d.server.Registry().WriteText)
		if err != nil {
			return nil, err
		}
		steps := float64(nRounds * nproc)
		engineLayerMetrics(m, merge(d.life(after)...), merge(after...).delta(merge(before...)), steps)
		sd := srvAfter.delta(srvBefore)
		m["ps.pull_ms_p50"] = percentile(d.rpc.pull, 50)
		m["ps.push_ms_p50"] = percentile(d.rpc.push, 50)
		m["ps.server_push_ms_p50"] = 1e3 * sd.histQuantile("janus_ps_push_seconds", 0.5)
		m["ps.bytes_per_step"] = sd.sum("janus_ps_bytes_moved_total") / steps
		m["ps.rpcs_per_step"] = float64(d.rpc.rpcs.Load()-rpc0) / steps
		m["ps.retries"] = sd.sum("janus_ps_retries_total")
		m["ps.stale_drops"] = sd.sum("janus_ps_stale_drops_total")
		m["ps.worker_compute_ms_p50"] = percentile(computeMs, 50)
		m["ps.exposed_comm_ms_per_round"] = exposed / float64(nRounds)
		m["minipy.parse_ms"] = float64(d.parse) / 1e6
		m["tensor.allocs_per_step"] = float64(ph.mallocs) / steps
		nodes := 0
		for _, w := range d.cluster.Workers() {
			nodes += w.Engine().PassSummary().Nodes
		}
		m["passes.nodes"] = float64(nodes)
		selfTimeMetrics(m, cfg.tr.snapshot(), nRounds)
	}

	// Checks: the loss falls, and after a final pull every replica's
	// parameters equal the server's.
	k := min(distLossWindow, len(losses)/2)
	first, last := mean(losses[:k]), mean(losses[len(losses)-k:])
	res.check(last < first)
	match, err := d.replicasMatchServer()
	if err != nil {
		return nil, err
	}
	for _, ok := range match {
		res.check(ok)
	}
	res.note("dist checks: loss %.4f -> %.4f over %d rounds; replicas equal to server after final pull: %v",
		first, last, len(losses), match)
	m["success_frac"] = 1 - float64(res.failed)/float64(res.attempted)
	return res, nil
}

// pullStats accumulates the pull bursts of a run.
type pullStats struct {
	n      int
	rates  []float64 // pulls/s per burst
	kernel []float64 // calibration samples, one before each burst
}

// pullBlock offers pullBursts sequential bursts of per full-shard pulls
// (have -1: every parameter of the shard) to the parameter server over its
// HTTP client, alternating shards, each burst keeping nproc connections
// busy: the request rate the PS wire layer sustains, which the barriered
// rounds, waiting on compute, never reach. Each pull must succeed with a
// non-empty parameter set.
func (d *distCluster) pullBlock(per int, st *pullStats, cal *calibrator, res *result) {
	per = max(nproc, per)
	for c := 0; c < pullBursts; c++ {
		cal.sample()
		st.kernel = append(st.kernel, cal.samples[len(cal.samples)-1])
		oks := make([]bool, per)
		var next atomic.Int64
		var wg sync.WaitGroup
		t0 := time.Now()
		for w := 0; w < nproc; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int(next.Add(1) - 1); i < per; i = int(next.Add(1) - 1) {
					params, _, _, err := d.rpc.Transport.Pull(context.Background(), i%distShards, -1)
					oks[i] = err == nil && len(params) > 0
				}
			}()
		}
		wg.Wait()
		st.rates = append(st.rates, float64(per)/time.Since(t0).Seconds())
		st.n += per
		for _, ok := range oks {
			res.check(ok)
		}
	}
}

// scrape reads every replica engine's registry.
func (d *distCluster) scrape() []promSnapshot {
	out := make([]promSnapshot, nproc)
	for i, w := range d.cluster.Workers() {
		out[i], _ = scrape(w.Engine().Registry().WriteText)
	}
	return out
}

// life returns each replica's registry change since its engine was built.
func (d *distCluster) life(now []promSnapshot) []promSnapshot {
	out := make([]promSnapshot, len(now))
	for i := range now {
		out[i] = now[i].delta(d.base[i])
	}
	return out
}

// replicasMatchServer pulls every replica up to date (a round with an
// empty body pulls and pushes nothing) and compares its parameters
// bitwise with the server's shards.
func (d *distCluster) replicasMatchServer() ([]bool, error) {
	want := map[string]*tensor.Tensor{}
	for s := 0; s < distShards; s++ {
		params, _, _, err := d.server.Pull(context.Background(), s, -1)
		if err != nil {
			return nil, fmt.Errorf("server pull shard %d: %w", s, err)
		}
		for k, v := range params {
			want[k] = v
		}
	}
	var out []bool
	for _, w := range d.cluster.Workers() {
		if _, _, err := w.Do(func() (float64, error) { return 0, nil }); err != nil {
			return nil, fmt.Errorf("final pull: %w", err)
		}
		got := w.Engine().Store.ShardSnapshot(0, 1)
		ok := len(got) == len(want) && len(want) > 0
		for k, t := range want {
			g := got[k]
			if g == nil || maxRelDiff(g.Data(), t.Data()) != 0 || math.IsNaN(maxRelDiff(g.Data(), t.Data())) {
				ok = false
			}
		}
		out = append(out, ok)
	}
	return out, nil
}
