package serve

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/minipy"
	"repro/internal/tensor"
)

// batcher coalesces concurrent calls with the same signature into one
// batched execution. The signature is the full named-feed set — function
// name plus every feed's name and per-item shape (everything after the
// leading batch axis) — so multi-argument functions batch exactly like the
// original single-tensor Infer path. Results are split back row-for-row per
// output, so batched execution returns exactly what per-request execution
// would (the model function must be batch-dim parallel, as DL inference
// functions are).
//
// Batching is work-conserving: a request never waits for batch-mates while
// a pool worker is idle. submit claims an idle worker without blocking and
// runs the request at once. Only when every worker is busy does the request
// join a pending group; one on-demand dispatcher goroutine then hands each
// worker that frees up to the oldest pending group (FIFO across groups).
// A group therefore gathers requests for exactly as long as the pool could
// not have served them anyway, and closes early at maxBatch requests. No
// timer is needed: under light load every request runs alone and at once,
// and under load batches form from the requests that queue behind busy
// workers.
type batcher struct {
	pool     *Pool
	maxBatch int

	mu sync.Mutex
	// open maps a signature to its pending group that still accepts
	// requests; pending lists every pending group, oldest first. The
	// dispatcher goroutine runs exactly while pending is non-empty.
	open    map[string]*batchGroup
	pending []*batchGroup
}

// positionalFeed is the reserved feed name for the legacy Infer path, which
// passes one tensor to the function's first parameter without knowing its
// name. Positional and named requests never share a batch group (their keys
// differ), so mixing the two styles stays correct — just unbatched across
// styles.
const positionalFeed = "#0"

// feed is one named input tensor. Shared feeds are weight-like inputs
// (lookup tables, projection matrices passed as arguments) that every
// request in a batch reads whole: they are never stacked along the batch
// axis, never padded, and never force a batch-dim split — requests batch
// together as long as their shared feeds hold identical bytes (enforced by
// a content fingerprint in the group key).
type feed struct {
	name   string
	t      *tensor.Tensor
	shared bool
}

type inferResult struct {
	outs []*tensor.Tensor
	err  error
}

type inferReq struct {
	ctx   context.Context
	feeds []feed
	rows  int
	out   chan inferResult
	// enq stamps submission time so run can record how long the request
	// waited for a worker (janus_serve_batch_wait_seconds).
	enq time.Time
}

type batchGroup struct {
	key  string
	fn   string
	reqs []*inferReq
}

// fail delivers err to every request of the group.
func (g *batchGroup) fail(err error) {
	for _, r := range g.reqs {
		r.out <- inferResult{err: err}
	}
}

func newBatcher(p *Pool, maxBatch int) *batcher {
	return &batcher{pool: p, maxBatch: maxBatch, open: make(map[string]*batchGroup)}
}

// groupKey buckets requests that can share one execution: same function,
// same feed names, same per-item shapes (everything after the batch axis).
// Function and feed names are length-prefixed so client-chosen names
// containing the separator characters cannot forge a collision between
// different signatures (flush assumes every request in a group has the
// same feed list).
func groupKey(fn string, feeds []feed) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d:%s", len(fn), fn)
	for _, f := range feeds {
		if f.shared {
			// Shared feeds batch across requests only when identical: the
			// key carries the full shape plus a content fingerprint, so two
			// requests passing different weights land in different groups
			// (and each group's flush can pass the tensor through whole).
			fmt.Fprintf(&sb, "|s%d:%s=", len(f.name), f.name)
			for _, d := range f.t.Shape() {
				fmt.Fprintf(&sb, "%d,", d)
			}
			fmt.Fprintf(&sb, "#%016x", fingerprint(f.t))
			continue
		}
		fmt.Fprintf(&sb, "|b%d:%s=", len(f.name), f.name)
		for _, d := range f.t.Shape()[1:] {
			fmt.Fprintf(&sb, "%d,", d)
		}
	}
	return sb.String()
}

// fingerprint hashes a tensor's exact bit content (FNV-1a over the
// little-endian IEEE-754 bit patterns).
func fingerprint(t *tensor.Tensor) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, f := range t.Data() {
		bits := math.Float64bits(f)
		for i := 0; i < 64; i += 8 {
			h ^= (bits >> i) & 0xff
			h *= prime64
		}
	}
	return h
}

// validateFeeds checks the batching contract up front, so shape mistakes
// fail with a clear client error instead of a recovered kernel panic deep in
// a batched execution: every feed must carry a leading batch dimension
// (rank >= 1), and all feeds of one request must agree on the batch size.
func validateFeeds(fn string, feeds []feed) (rows int, err error) {
	if len(feeds) == 0 {
		return 0, fmt.Errorf("serve: %s: at least one feed is required", fn)
	}
	rows = -1
	var first string
	for _, f := range feeds {
		if f.t == nil {
			return 0, fmt.Errorf("serve: %s: feed %q is nil", fn, feedName(f.name))
		}
		if f.shared {
			// Shared (broadcast) feeds carry no batch dimension contract.
			continue
		}
		if f.t.Rank() < 1 {
			return 0, fmt.Errorf("serve: %s: feed %q is a scalar — every batched feed needs a leading batch dimension (shape [1, ...] for a single example; mark weight-like inputs shared)", fn, feedName(f.name))
		}
		if rows < 0 {
			rows, first = f.t.Dim(0), f.name
		} else if f.t.Dim(0) != rows {
			return 0, fmt.Errorf("serve: %s: feeds disagree on the batch dimension (%q has %d rows, %q has %d)",
				fn, feedName(first), rows, feedName(f.name), f.t.Dim(0))
		}
	}
	if rows < 0 {
		return 0, fmt.Errorf("serve: %s: every feed is marked shared — at least one batched feed is required (use Call for unbatched invocation)", fn)
	}
	return rows, nil
}

// feedName maps the internal positional marker to a user-facing name.
func feedName(name string) string {
	if name == positionalFeed {
		return "input"
	}
	return name
}

// submit runs one request, batched with concurrent same-signature requests
// when every worker is busy, and blocks until its result arrives or ctx is
// done. Feeds must already be in a deterministic order (sorted by name; the
// pool's entry points do this). If ctx expires while the request is pending
// or executing, submit returns ErrCanceled immediately; the batch may still
// execute and the abandoned result is discarded.
func (b *batcher) submit(ctx context.Context, fn string, feeds []feed) ([]*tensor.Tensor, error) {
	rows, err := validateFeeds(fn, feeds)
	if err != nil {
		return nil, err
	}
	req := &inferReq{ctx: ctx, feeds: feeds, rows: rows, out: make(chan inferResult, 1), enq: time.Now()}
	key := groupKey(fn, feeds)
	b.mu.Lock()
	if len(b.pending) == 0 {
		// Nothing is queued ahead of this request, so an idle worker is its
		// to take: run now rather than wait for batch-mates.
		select {
		case e := <-b.pool.idle:
			b.mu.Unlock()
			b.pool.metrics.acquireWait.Observe(0)
			b.run(&batchGroup{key: key, fn: fn, reqs: []*inferReq{req}}, e)
			res := <-req.out
			return res.outs, res.err
		default:
		}
	}
	// Admission control: a pending request holds one wait-queue slot until
	// its result arrives, so batched traffic is covered by the same MaxQueue
	// bound as everything else — no unbounded pile-up of goroutines parked
	// in batch groups.
	release, err := b.pool.admitQueued()
	if err != nil {
		b.mu.Unlock()
		return nil, err
	}
	defer release()
	g := b.open[key]
	if g == nil {
		g = &batchGroup{key: key, fn: fn}
		b.open[key] = g
		b.pending = append(b.pending, g)
		if len(b.pending) == 1 {
			go b.dispatch()
		}
	}
	g.reqs = append(g.reqs, req)
	if len(g.reqs) >= b.maxBatch {
		// Full: the group keeps its place in line, later arrivals open a
		// new one behind it.
		delete(b.open, key)
	}
	b.mu.Unlock()
	select {
	case res := <-req.out:
		return res.outs, res.err
	case <-ctx.Done():
		return nil, core.CanceledErr(ctx)
	}
}

// dispatch hands free workers to pending groups, oldest first, and returns
// as soon as nothing is pending, so an idle pool keeps no goroutine alive.
// It waits with acquireWait, not acquire: every pending request already
// holds its own admission slot, so only the worker-wait timeout applies
// (ErrAcquireTimeout fails the group it was waiting for).
func (b *batcher) dispatch() {
	for {
		e, err := b.pool.acquireWait()
		b.mu.Lock()
		g := b.pending[0]
		b.pending[0] = nil
		b.pending = b.pending[1:]
		if b.open[g.key] == g {
			delete(b.open, g.key)
		}
		more := len(b.pending) > 0
		b.mu.Unlock()
		if err != nil {
			g.fail(err)
		} else {
			go b.run(g, e)
		}
		if !more {
			return
		}
	}
}

// run executes one group on worker e, returns e to the pool, and scatters
// per-request rows of every output back.
func (b *batcher) run(g *batchGroup, e *core.Engine) {
	m := b.pool.metrics
	if len(g.reqs) >= b.maxBatch {
		m.flushFull.Inc()
	} else {
		m.flushIdle.Inc()
	}
	m.batchSize.Observe(float64(len(g.reqs)))
	for _, r := range g.reqs {
		m.batchWait.Since(r.enq)
	}
	outs, rows, err := b.call(g, e)
	b.pool.release(e)
	m.batched.Add(int64(len(g.reqs)))
	if err != nil {
		g.fail(err)
		return
	}
	if len(g.reqs) == 1 {
		g.reqs[0].out <- inferResult{outs: outs}
		return
	}
	// Per-output scatter rule: outputs that preserve the batch dimension
	// are sliced back row-for-row; rank-0 scalars (a merged train step's
	// loss over the concatenated batch) are shared — every request gets the
	// same value. Anything else is ambiguous and fails the whole group.
	for i, t := range outs {
		if t.Rank() >= 1 && t.Dim(0) != rows {
			g.fail(fmt.Errorf("serve: %s output %d has shape %v, which neither preserves the batch dimension (%d rows in) nor is a shared scalar",
				g.fn, i, t.Shape(), rows))
			return
		}
	}
	off := 0
	for _, r := range g.reqs {
		slice := make([]*tensor.Tensor, len(outs))
		for i, t := range outs {
			if t.Rank() < 1 {
				slice[i] = t
				continue
			}
			slice[i] = tensor.SliceAxis(t, 0, off, off+r.rows)
		}
		r.out <- inferResult{outs: slice}
		off += r.rows
	}
}

// call stacks the group's feeds along the batch axis and executes them
// once on e, returning the outputs (synthetic bucket rows already dropped)
// and the group's total row count.
func (b *batcher) call(g *batchGroup, e *core.Engine) (outs []*tensor.Tensor, rows int, err error) {
	for _, r := range g.reqs {
		rows += r.rows
		// The group key guarantees a shared feed-name list; verify anyway so
		// a future keying bug degrades to failed requests, not a panic in
		// the dispatcher's goroutine (which would kill the process).
		if len(r.feeds) != len(g.reqs[0].feeds) {
			return nil, 0, fmt.Errorf("serve: internal error: mixed feed signatures in one batch group for %s", g.fn)
		}
	}
	// Concat each batched feed across requests; shared feeds pass through
	// whole (the group key guarantees every request brought identical bytes).
	batched := make([]feed, len(g.reqs[0].feeds))
	for j := range batched {
		proto := g.reqs[0].feeds[j]
		if proto.shared {
			batched[j] = proto
			continue
		}
		parts := make([]*tensor.Tensor, len(g.reqs))
		for i, r := range g.reqs {
			parts[i] = r.feeds[j].t
		}
		t := parts[0]
		if len(parts) > 1 {
			t = tensor.Concat(0, parts...)
		}
		batched[j] = feed{name: proto.name, t: t}
	}
	// Shape bucketing: round the execution up to the next power-of-two row
	// count by repeating the last real row, so near-miss batch sizes share
	// one compiled graph instead of converting their own. Synthetic rows
	// are computed and discarded — only real rows scatter back.
	m := b.pool.metrics
	pad := 0
	if b.pool.cfg.BucketBatch {
		if bucket := nextPow2(rows); bucket > rows && bucket <= b.pool.cfg.MaxBucket {
			pad = bucket - rows
			for j := range batched {
				if !batched[j].shared {
					batched[j].t = padRows(batched[j].t, pad)
				}
			}
			m.bucketPadded.Inc()
			m.bucketRows.Add(int64(pad))
		} else {
			m.bucketExact.Inc()
		}
	}
	// A single-request batch can honor its caller's context end to end;
	// a shared batch must not be killed by one member's cancellation.
	callCtx := context.Background()
	if len(g.reqs) == 1 {
		callCtx = g.reqs[0].ctx
	}
	out, err := guard(func() (minipy.Value, error) {
		if len(batched) == 1 && batched[0].name == positionalFeed {
			return e.CallCtx(callCtx, g.fn, []minipy.Value{minipy.NewTensor(batched[0].t)})
		}
		feeds := make(map[string]minipy.Value, len(batched))
		for _, f := range batched {
			feeds[f.name] = minipy.NewTensor(f.t)
		}
		return e.CallNamed(callCtx, g.fn, feeds)
	})
	if err != nil {
		return nil, 0, fmt.Errorf("%w (calling %s with batched feeds %s)", err, g.fn, describeFeeds(batched))
	}
	outs, err = minipy.Tensors(out)
	if err != nil {
		return nil, 0, fmt.Errorf("serve: %s: %v", g.fn, err)
	}
	if pad > 0 {
		// Drop the synthetic rows. Every output must preserve the (padded)
		// batch dimension: a shared scalar (e.g. a mean loss) would have
		// aggregated over rows that no client sent, so returning it would be
		// silently wrong — reject instead, pointing at the knob.
		for i, t := range outs {
			if t.Rank() < 1 || t.Dim(0) != rows+pad {
				return nil, 0, fmt.Errorf("serve: %s output %d has shape %v, which does not preserve the batch dimension — shape bucketing pads the batch with synthetic rows, so %s needs batch-preserving outputs (disable BucketBatch to serve it)",
					g.fn, i, t.Shape(), g.fn)
			}
			outs[i] = tensor.SliceAxis(t, 0, 0, rows)
		}
	}
	return outs, rows, nil
}

// padRows appends pad copies of t's last row along axis 0. Repeating a real
// row (rather than zero-filling) keeps the synthetic rows inside the data
// distribution, so padded execution can never trip a value-dependent
// assertion (a speculation deopt) that the real rows would not have.
func padRows(t *tensor.Tensor, pad int) *tensor.Tensor {
	last := tensor.SliceAxis(t, 0, t.Dim(0)-1, t.Dim(0))
	parts := make([]*tensor.Tensor, 1, pad+1)
	parts[0] = t
	for i := 0; i < pad; i++ {
		parts = append(parts, last)
	}
	return tensor.Concat(0, parts...)
}

// describeFeeds renders a feed list as name:shape pairs for error messages.
func describeFeeds(feeds []feed) string {
	parts := make([]string, len(feeds))
	for i, f := range feeds {
		parts[i] = fmt.Sprintf("%s:%v", feedName(f.name), f.t.Shape())
	}
	return strings.Join(parts, ", ")
}

// sortedFeeds converts a name->tensor map into the batcher's canonical
// (name-sorted) feed list, marking the names in shared as broadcast feeds.
func sortedFeeds(m map[string]*tensor.Tensor, shared map[string]bool) []feed {
	feeds := make([]feed, 0, len(m))
	for name, t := range m {
		feeds = append(feeds, feed{name: name, t: t, shared: shared[name]})
	}
	sort.Slice(feeds, func(i, j int) bool { return feeds[i].name < feeds[j].name })
	return feeds
}
