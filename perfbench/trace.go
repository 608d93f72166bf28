package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// spanRec is one recorded span: a named interval around a call the
// benchmark makes into one layer, its parent span (0 for a root) and the
// identifier of the request, step or round it belongs to.
type spanRec struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory for the traced run; the spans are written
// out once the run ends. A nil or disabled tracer records nothing and costs
// one atomic load per span, so untraced runs measure the program alone.
type tracer struct {
	on     atomic.Bool // read by request and push goroutines
	origin time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []spanRec
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// enable turns recording on or off for spans started afterwards.
func (t *tracer) enable(on bool) { t.on.Store(on) }

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

// span is an open span; end closes and records it.
type span struct {
	t      *tracer
	id     int64
	parent int64
	op     int64
	name   string
	start  time.Time
}

// start opens a span named name under parent (0 for a root) for op.
func (t *tracer) start(name string, parent, op int64) span {
	if !t.enabled() {
		return span{}
	}
	return span{t: t, id: t.nextID.Add(1), parent: parent, op: op, name: name, start: time.Now()}
}

// end records the span.
func (s span) end() {
	if s.t == nil {
		return
	}
	s.t.record(s.id, s.parent, s.op, s.name, s.start, time.Now())
}

// reserve allocates a span ID ahead of recording it with addID, so children
// can name a parent whose end is not known yet.
func (t *tracer) reserve() int64 {
	if !t.enabled() {
		return 0
	}
	return t.nextID.Add(1)
}

// addID records a span under an ID from reserve, over an interval the
// caller measured (a request is timed from its due time, not from when the
// call was made).
func (t *tracer) addID(id int64, name string, parent, op int64, start, end time.Time) {
	if !t.enabled() || id == 0 {
		return
	}
	t.record(id, parent, op, name, start, end)
}

func (t *tracer) record(id, parent, op int64, name string, start, end time.Time) {
	rec := spanRec{ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.origin).Nanoseconds(), End: end.Sub(t.origin).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, rec)
	t.mu.Unlock()
}

// snapshot returns the recorded spans.
func (t *tracer) snapshot() []spanRec {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]spanRec(nil), t.spans...)
}

// writeJSONL writes the spans one JSON object per line.
func writeJSONL(path string, spans []spanRec) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// selfTimes returns, per span name, the summed self time of its spans: a
// span's duration minus the part of its interval that its child spans
// cover (children overlapping each other are counted once).
func selfTimes(spans []spanRec) map[string]time.Duration {
	children := map[int64][]spanRec{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += time.Duration(s.End - s.Start - covered(s, children[s.ID]))
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent spanRec, kids []spanRec) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	return total + curHi - curLo
}

// spanKey carries the benchmark's current span ID through calls that take
// a context (parameter-server transport calls issued inside a worker step).
type spanKey struct{}

func withSpan(ctx context.Context, id int64) context.Context {
	return context.WithValue(ctx, spanKey{}, id)
}

func spanFrom(ctx context.Context) int64 {
	id, _ := ctx.Value(spanKey{}).(int64)
	return id
}
