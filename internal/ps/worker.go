package ps

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/tensor"
	"repro/internal/vars"
)

// isStale matches staleness rejections from both the in-process server
// (wrapped ErrStale) and the HTTP client (mapped from 409).
func isStale(err error) bool { return errors.Is(err, ErrStale) }

// StepFunc drives one training iteration for a global batch index and
// returns the training loss (a models.Instance.Step, typically).
type StepFunc func(i int) (float64, error)

// WorkerStats counts one worker's parameter-server traffic.
type WorkerStats struct {
	Steps       int64 `json:"steps"`
	Pulls       int64 `json:"pulls"`
	PullsFresh  int64 `json:"pulls_fresh"`
	Pushes      int64 `json:"pushes"`
	StaleDrops  int64 `json:"stale_drops"`
	Backoffs    int64 `json:"backoffs"`
	BytesPulled int64 `json:"bytes_pulled"`
	BytesPushed int64 `json:"bytes_pushed"`
}

// Worker is one data-parallel replica: a core.Engine with its own parameter
// store and data slice, wired to a parameter server through a Transport.
//
// Per step the worker pulls fresh parameters for every shard (version-
// checked, so unchanged shards cost one round trip and no payload), runs its
// training step, and — through the engine's gradient sink — collects the
// gradients by shard. A shard is pushed, in one PushGrad on a background
// goroutine, as soon as every parameter it returned on its last pull has a
// gradient — except the shard completing last, which has nothing left to
// overlap with: it is pushed on the calling goroutine when the step body
// returns, together with any shard still missing gradients. A static graph
// hands over all gradients at once after its run; on the trace tape they
// arrive top layers first and a completed shard's push overlaps the rest
// of backprop. A worker is single-threaded with respect to Step;
// concurrency across workers is the cluster's job.
type Worker struct {
	ID int

	engine *core.Engine
	step   StepFunc
	t      Transport
	shards int

	// versions holds the per-shard version of the worker's parameter copy.
	versions []int64
	// shardNames[s] lists the parameters shard s returned on its last fresh
	// pull; pending[s] collects shard s's gradients until it holds one for
	// each of them (or the step body returns). open counts the shards of
	// the step in flight that are still incomplete.
	shardNames [][]string
	pending    []map[string]*tensor.Tensor
	open       int
	// clock is the worker's step clock, carried on every push for the
	// server's staleness check. Under free-running execution (RunFree) every
	// pull fast-forwards it to the freshest step the server has observed, so
	// the clock measures the AGE of the worker's parameter copy in global
	// steps — a laggard whose pushes went stale re-enters the staleness
	// window on its next pull instead of lagging forever. Barriered steps
	// (Do/Step outside RunFree) never fast-forward: every worker counts
	// rounds locally and identically, preserving the invariant that a
	// round-barriered harness at staleness 0 rejects nothing — a worker
	// pulling late in a round must not overtake its peers' push clocks.
	clock int64
	// freeRunning is set for the duration of RunFree and enables the pull
	// clock fast-forward above.
	freeRunning bool
	// pushScale multiplies every pushed gradient (0 means 1). The server
	// averages pushes uniformly across workers; a caller that splits a
	// global batch into uneven slices sets scale = sliceRows*workers/rows
	// per worker so the applied update equals the gradient of the global
	// batch mean (see the public Cluster).
	pushScale float64

	// runCtx is the context of the step in flight: DoCtx sets it before
	// the body runs, and pushes run under it, so they join the step's trace
	// and honor its cancellation. Single-threaded with respect to steps (Do
	// waits for every push before returning), so no lock is needed.
	runCtx context.Context

	// rng drives the full-jitter stale-push backoff, seeded per worker so
	// colliding workers draw decorrelated sleeps (deterministic doubling
	// would march them in lockstep retry convoys) while runs stay
	// reproducible. Only RunFree's single goroutine touches it.
	rng *rand.Rand

	// turns, when set (Cluster.RunAsync under Cluster.turnSeed),
	// makes the pull and the compute-and-push phases of each step wait for
	// their seeded turn; nil lets them race.
	turns *turnOrder

	// Lease state (Join): the current assignment, refreshed by the
	// background heartbeat loop.
	assignMu sync.Mutex
	assign   Assignment
	joined   bool

	// Per-step push tracking: each background push adds to wg; Step waits
	// for all of them before returning.
	wg      sync.WaitGroup
	pushMu  sync.Mutex
	pushErr error

	stats struct {
		steps, pulls, pullsFresh, pushes, staleDrops atomic.Int64
		backoffs, bytesPulled, bytesPushed           atomic.Int64
	}
}

// NewWorker wires a worker around an engine replica. The engine must already
// have its model program loaded (so its parameter store fills in lazily on
// the first step), and must not be shared with other workers: NewWorker
// installs a gradient sink on it, diverting all parameter updates to the
// server. step may be nil for workers driven exclusively through Do (the
// public function-handle cluster does this); Step then fails.
func NewWorker(id int, e *core.Engine, step StepFunc, t Transport) (*Worker, error) {
	shards, err := t.NumShards()
	if err != nil {
		return nil, fmt.Errorf("ps: worker %d: %w", id, err)
	}
	if shards < 1 {
		return nil, fmt.Errorf("ps: worker %d: server reports %d shards", id, shards)
	}
	w := &Worker{ID: id, engine: e, step: step, t: t, shards: shards,
		versions:   make([]int64, shards),
		shardNames: make([][]string, shards),
		pending:    make([]map[string]*tensor.Tensor, shards),
		rng:        rand.New(rand.NewSource(int64(id)*2654435761 + 1))}
	for i := range w.versions {
		w.versions[i] = -1
	}
	e.SetGradSink(w.push)
	return w, nil
}

// Engine returns the wrapped engine replica.
func (w *Worker) Engine() *core.Engine { return w.engine }

// SetPushScale sets the factor applied to every subsequent gradient push
// (1 restores unscaled pushes). Call between steps, never during one.
func (w *Worker) SetPushScale(s float64) { w.pushScale = s }

// Bootstrap creates the replica's parameters and registers them with the
// server: it runs one throwaway step with gradients discarded (variables are
// created lazily inside the step), proposes the resulting initial values via
// InitVars (set-if-absent — with a shared seed every replica proposes the
// same values), then pulls the authoritative copy.
func (w *Worker) Bootstrap(batchIndex int) error {
	if w.step == nil {
		return fmt.Errorf("ps: worker %d has no step driver (use BootstrapWith)", w.ID)
	}
	return w.BootstrapWith(func() error { _, err := w.step(batchIndex); return err })
}

// BootstrapWith is Bootstrap for an arbitrary throwaway execution body —
// the generalized form behind the public function-handle cluster, whose
// "step" is a named function call with caller-supplied feeds rather than a
// batch index.
func (w *Worker) BootstrapWith(body func() error) error {
	w.engine.SetGradSink(func(string, *tensor.Tensor) {})
	err := body()
	w.engine.SetGradSink(w.push)
	if err != nil {
		return fmt.Errorf("ps: worker %d bootstrap step: %w", w.ID, err)
	}
	if err := w.t.InitVars(context.Background(), w.engine.Store.ShardSnapshot(0, 1)); err != nil {
		return fmt.Errorf("ps: worker %d init: %w", w.ID, err)
	}
	return w.pullAll(context.Background())
}

// pullAll refreshes every shard of the local parameter copy, in parallel.
// Under free-running execution it also fast-forwards the worker's step
// clock to the freshest step the server has observed on any shard, so
// subsequent pushes carry the age of this parameter copy rather than the
// worker's lifetime step count.
func (w *Worker) pullAll(ctx context.Context) error {
	errs := make([]error, w.shards)
	steps := make([]int64, w.shards)
	pull := func(s int) {
		params, version, step, err := w.t.Pull(ctx, s, w.versions[s])
		if err != nil {
			errs[s] = err
			return
		}
		steps[s] = step
		w.stats.pulls.Add(1)
		if params != nil {
			w.stats.pullsFresh.Add(1)
			names := make([]string, 0, len(params))
			for name, t := range params {
				names = append(names, name)
				w.stats.bytesPulled.Add(int64(8 * t.Size()))
			}
			w.shardNames[s] = names
			w.engine.Store.SetAll(params)
		}
		w.versions[s] = version
	}
	// Shard 0 is pulled on the calling goroutine, the others in parallel.
	var wg sync.WaitGroup
	for s := 1; s < w.shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			pull(s)
		}(s)
	}
	pull(0)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if w.freeRunning {
		for _, step := range steps {
			if step > w.clock {
				w.clock = step
			}
		}
	}
	return nil
}

// push is the engine's gradient sink: it files the gradient under its
// shard and pushes the shard once every parameter the shard holds has one,
// unless no other shard is still incomplete: DoCtx pushes that one when
// the body returns.
func (w *Worker) push(name string, g *tensor.Tensor) {
	if w.pushScale != 0 && w.pushScale != 1 {
		g = tensor.MulScalar(g, w.pushScale)
	}
	s := vars.ShardOf(name, w.shards)
	if _, dup := w.pending[s][name]; dup {
		// A body that trains twice in one step: ship the first gradient.
		w.flush(s, false)
	}
	if w.pending[s] == nil {
		w.pending[s] = make(map[string]*tensor.Tensor, len(w.shardNames[s]))
	}
	w.pending[s][name] = g
	for _, n := range w.shardNames[s] {
		if _, ok := w.pending[s][n]; !ok {
			return
		}
	}
	if w.open--; w.open > 0 {
		w.flush(s, false)
	}
}

// flush pushes shard s's collected gradients in one PushGrad, on the
// calling goroutine when inline is set and on a background one otherwise.
func (w *Worker) flush(s int, inline bool) {
	grads := w.pending[s]
	if len(grads) == 0 {
		return
	}
	w.pending[s] = nil
	step := w.clock
	ctx := w.runCtx
	if ctx == nil {
		ctx = context.Background()
	}
	push := func() {
		_, err := w.t.PushGrad(ctx, s, w.ID, step, grads)
		if err != nil {
			if isStale(err) {
				// Staleness is expected under async operation: drop the
				// gradients and let the next pull re-synchronize.
				w.stats.staleDrops.Add(int64(len(grads)))
				return
			}
			w.pushMu.Lock()
			if w.pushErr == nil {
				w.pushErr = fmt.Errorf("ps: worker %d push shard %d: %w", w.ID, s, err)
			}
			w.pushMu.Unlock()
			return
		}
		w.stats.pushes.Add(1)
		for _, g := range grads {
			w.stats.bytesPushed.Add(int64(8 * g.Size()))
		}
	}
	if inline {
		push()
		return
	}
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		push()
	}()
}

// Step runs one training iteration on global batch index i: pull, compute
// (each shard's gradients go to the server as soon as they are complete),
// then wait for the last push. It returns the training loss and the number
// of gradients the server rejected as stale.
func (w *Worker) Step(i int) (loss float64, stale int64, err error) {
	if w.step == nil {
		return 0, 0, fmt.Errorf("ps: worker %d has no step driver (use Do)", w.ID)
	}
	return w.Do(func() (float64, error) { return w.step(i) })
}

// Do runs one training iteration whose body is an arbitrary loss-producing
// execution on the worker's engine: pull fresh parameters, run body (the
// engine's gradient sink pushes each shard's gradients once complete),
// push whatever is left, then wait for the last push. The body must drive
// exactly the worker's own engine — typically a function-handle Call that
// reaches optimize() — and must not be invoked concurrently.
func (w *Worker) Do(body func() (float64, error)) (loss float64, stale int64, err error) {
	return w.DoCtx(context.Background(), body)
}

// DoCtx is Do under a context. A trace riding ctx gets one "worker_step"
// span covering the whole iteration, with the per-shard pulls and pushes —
// including their server-side handling, when the transport crosses a
// process boundary — parented beneath it.
func (w *Worker) DoCtx(ctx context.Context, body func() (float64, error)) (loss float64, stale int64, err error) {
	sp := obs.StartSpan(ctx, "worker_step")
	defer sp.End()
	if sp.ID() != 0 {
		ctx = obs.ContextWithSpan(ctx, sp.ID())
	}
	w.runCtx = ctx
	w.turns.acquire(w.ID)
	err = w.pullAll(ctx)
	w.turns.release()
	if err != nil {
		return 0, 0, fmt.Errorf("ps: worker %d pull: %w", w.ID, err)
	}
	w.clock++
	w.open = 0
	for _, names := range w.shardNames {
		if len(names) > 0 {
			w.open++
		}
	}
	staleBefore := w.stats.staleDrops.Load()
	w.turns.acquire(w.ID)
	loss, err = body()
	// Push what the sink left: the shard that completed last on this
	// goroutine, shards still missing gradients in the background.
	last := -1
	for s := range w.pending {
		if len(w.pending[s]) > 0 {
			if last >= 0 {
				w.flush(last, false)
			}
			last = s
		}
	}
	if last >= 0 {
		w.flush(last, true)
	}
	w.wg.Wait()
	w.turns.release()
	stale = w.stats.staleDrops.Load() - staleBefore
	w.pushMu.Lock()
	perr := w.pushErr
	w.pushErr = nil
	w.pushMu.Unlock()
	if err != nil {
		return 0, stale, err
	}
	if perr != nil {
		return 0, stale, perr
	}
	w.stats.steps.Add(1)
	return loss, stale, nil
}

// Free-running backoff bounds: after a step whose pushes went stale, the
// worker sleeps U[0, min(maxBackoff, baseBackoff<<consecutiveStale)) before
// re-pulling, reset by the first clean step. The sleep yields the host to
// the fresher workers the laggard is contending with; the full jitter (per-
// worker seeded rng) keeps simultaneously-stale workers from synchronizing
// into retry convoys that go stale together again.
const (
	baseBackoff = 500 * time.Microsecond
	maxBackoff  = 8 * time.Millisecond
)

// staleBackoff draws the sleep after the n-th consecutive stale step
// (1-based).
func (w *Worker) staleBackoff(n int) time.Duration {
	ceil := maxBackoff
	if shifted := baseBackoff << uint(n-1); shifted > 0 && shifted < ceil {
		ceil = shifted
	}
	return time.Duration(w.rng.Int63n(int64(ceil)))
}

// RunFree runs n free-running local steps: pull → body → shard pushes,
// with no coordination with other workers. The staleness bound is enforced
// by the server — a step whose gradients are rejected as stale is not an
// error: the worker backs off (bounded exponential) and re-pulls, which
// fast-forwards its clock back into the staleness window. body(i) receives
// the local step index and returns the training loss. Returns the per-step
// loss trajectory and how many gradients went stale.
func (w *Worker) RunFree(ctx context.Context, n int, body func(i int) (float64, error)) ([]float64, int64, error) {
	w.freeRunning = true
	defer func() { w.freeRunning = false }()
	losses := make([]float64, 0, n)
	var staleTotal int64
	consecutiveStale := 0
	for i := 0; i < n; i++ {
		if ctx.Err() != nil {
			return losses, staleTotal, core.CanceledErr(ctx)
		}
		i := i
		loss, stale, err := w.DoCtx(ctx, func() (float64, error) { return body(i) })
		if err != nil {
			return losses, staleTotal, err
		}
		losses = append(losses, loss)
		staleTotal += stale
		if stale == 0 {
			consecutiveStale = 0
			continue
		}
		consecutiveStale++
		w.stats.backoffs.Add(1)
		select {
		case <-time.After(w.staleBackoff(consecutiveStale)):
		case <-ctx.Done():
			return losses, staleTotal, core.CanceledErr(ctx)
		}
	}
	return losses, staleTotal, nil
}

// Join registers the worker as a live cluster member and starts a background
// heartbeat loop renewing the lease at ~TTL/3 until ctx ends. The returned
// assignment is the worker's initial slice of the data coverage; Assignment
// tracks it as membership changes. An expired or superseded lease triggers
// automatic re-registration — the worker rejoins with whatever slot the new
// membership assigns it.
func (w *Worker) Join(ctx context.Context) (Assignment, error) {
	lease, err := w.t.Register(ctx, w.ID)
	if err != nil {
		return Assignment{}, fmt.Errorf("ps: worker %d register: %w", w.ID, err)
	}
	w.setAssignment(lease.Assignment)
	ttl := lease.TTL
	if ttl <= 0 {
		ttl = 2 * time.Second
	}
	go w.heartbeatLoop(ctx, lease.ID, ttl)
	return lease.Assignment, nil
}

func (w *Worker) heartbeatLoop(ctx context.Context, leaseID int64, ttl time.Duration) {
	tick := time.NewTicker(ttl / 3)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		a, err := w.t.Heartbeat(ctx, w.ID, leaseID)
		switch {
		case err == nil:
			w.setAssignment(a)
		case errors.Is(err, ErrLeaseExpired):
			// The server gave our coverage away; rejoin under a fresh lease.
			lease, rerr := w.t.Register(ctx, w.ID)
			if rerr != nil {
				continue // transient; try again next tick
			}
			leaseID = lease.ID
			w.setAssignment(lease.Assignment)
		default:
			// Transient failure (server restarting, injected fault): keep the
			// lease token and retry on the next tick.
		}
	}
}

func (w *Worker) setAssignment(a Assignment) {
	w.assignMu.Lock()
	w.assign = a
	w.joined = true
	w.assignMu.Unlock()
}

// Assignment returns the worker's latest data-coverage assignment and
// whether the worker has joined the membership at all. Free-running elastic
// drivers re-read it every step to derive the global batch index.
func (w *Worker) Assignment() (Assignment, bool) {
	w.assignMu.Lock()
	defer w.assignMu.Unlock()
	return w.assign, w.joined
}

// Stats snapshots the worker's traffic counters.
func (w *Worker) Stats() WorkerStats {
	return WorkerStats{
		Steps:       w.stats.steps.Load(),
		Pulls:       w.stats.pulls.Load(),
		PullsFresh:  w.stats.pullsFresh.Load(),
		Pushes:      w.stats.pushes.Load(),
		StaleDrops:  w.stats.staleDrops.Load(),
		Backoffs:    w.stats.backoffs.Load(),
		BytesPulled: w.stats.bytesPulled.Load(),
		BytesPushed: w.stats.bytesPushed.Load(),
	}
}
