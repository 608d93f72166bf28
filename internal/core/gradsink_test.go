package core_test

import (
	"math"
	"testing"

	"repro/internal/autodiff"
	"repro/internal/core"
	"repro/internal/minipy"
	"repro/internal/models"
	"repro/internal/tensor"
)

// gradRecorder is a gradient sink that keeps the current step's gradients.
type gradRecorder struct {
	step  map[string]*tensor.Tensor
	calls int
}

func (r *gradRecorder) sink(name string, g *tensor.Tensor) {
	if r.step == nil {
		r.step = map[string]*tensor.Tensor{}
	}
	r.step[name] = g
	r.calls++
}

// take returns the recorded step's gradients and starts a new step.
func (r *gradRecorder) take() map[string]*tensor.Tensor {
	g := r.step
	r.step = nil
	return g
}

// relDiff is max|a-b| / max|b| (0 when both are identically zero).
func relDiff(a, b *tensor.Tensor) float64 {
	num, den := 0.0, 0.0
	for k, v := range b.Data() {
		num = math.Max(num, math.Abs(a.Data()[k]-v))
		den = math.Max(den, math.Abs(v))
	}
	if num == 0 {
		return 0
	}
	return num / den
}

// trainingEntriesStatic reports whether every cached training graph of e is
// static (and that at least one exists).
func trainingEntriesStatic(t *testing.T, e *core.Engine) bool {
	t.Helper()
	n, static := 0, true
	for _, en := range e.Cache().Inspect().EntryList {
		if !en.Infer {
			n++
			static = static && en.Static
		}
	}
	if n == 0 {
		t.Fatal("no training graph cached")
	}
	return static
}

// TestSinkGradientsMatchImperative runs a zoo model under Janus and under
// the interpreter, both with a gradient sink, in lockstep: every step both
// engines start from the same parameters and must hand their sinks the
// same gradients within 1e-9 (relative). Between steps the parameters move
// by the interpreter's gradients, as a parameter server would move them.
// LeNet takes the static graph path; TreeLSTM's recursion keeps it on the
// trace tape.
func TestSinkGradientsMatchImperative(t *testing.T) {
	for _, tc := range []struct {
		model  string
		static bool
	}{{"LeNet", true}, {"TreeLSTM", false}} {
		t.Run(tc.model, func(t *testing.T) {
			const seed, steps = 5, 8
			m, err := models.Get(tc.model)
			if err != nil {
				t.Fatal(err)
			}
			cfg := core.DefaultJanusConfig()
			cfg.Seed, cfg.PyOverheadNs = seed, -1
			jan := core.NewEngine(cfg)
			imp := core.NewEngine(core.Config{Mode: core.Imperative, LR: cfg.LR, Seed: seed, PyOverheadNs: -1})
			var jr, ir gradRecorder
			jan.SetGradSink(jr.sink)
			imp.SetGradSink(ir.sink)
			ji, err := m.Build(jan, seed)
			if err != nil {
				t.Fatal(err)
			}
			ii, err := m.Build(imp, seed)
			if err != nil {
				t.Fatal(err)
			}
			opt := &autodiff.SGD{LR: cfg.LR}
			for i := 0; i < steps; i++ {
				if i > 0 {
					imp.Store.SetAll(jan.Store.ShardSnapshot(0, 1))
				}
				if _, err := ji.Step(i); err != nil {
					t.Fatalf("janus step %d: %v", i, err)
				}
				if _, err := ii.Step(i); err != nil {
					t.Fatalf("imperative step %d: %v", i, err)
				}
				got, want := jr.take(), ir.take()
				if len(want) == 0 || len(got) != len(want) {
					t.Fatalf("step %d: janus sink got %d gradients, imperative %d", i, len(got), len(want))
				}
				for name, w := range want {
					g, ok := got[name]
					if !ok {
						t.Fatalf("step %d: no janus gradient for %s", i, name)
					}
					if d := relDiff(g, w); d > 1e-9 {
						t.Fatalf("step %d: gradient of %s departs from the interpreter's by %.3g (relative)", i, name, d)
					}
				}
				opt.Apply(jan.Store, want)
			}
			st := jan.Stats()
			if st.GraphSteps == 0 {
				t.Fatalf("no step ran on the graph executor: %+v", st)
			}
			if got := trainingEntriesStatic(t, jan); got != tc.static {
				t.Fatalf("training graph static = %v, want %v", got, tc.static)
			}
			if tc.static && st.PoolGets == 0 {
				t.Fatalf("static sink steps rented nothing from the pool: %+v", st)
			}
		})
	}
}

const sinkProg = `
def loss_fn(x, y):
    w = variable("w", [1, 1])
    b = variable("b", [1])
    return mse(matmul(x, w) + b, y)

x = constant([[0.0], [1.0], [2.0], [3.0]])
y = constant([[-3.0], [-1.0], [1.0], [3.0]])
__loss = optimize(lambda: loss_fn(x, y))
`

// TestTraceModeHonorsGradSink checks that the trace (defun) baseline hands
// its gradients to the sink instead of updating locally.
func TestTraceModeHonorsGradSink(t *testing.T) {
	e := core.NewEngine(core.Config{Mode: core.Trace, LR: 0.1, Seed: 7})
	var r gradRecorder
	e.SetGradSink(r.sink)
	driver := minipy.MustParse(sinkProg)
	const steps = 5
	var w0 *tensor.Tensor
	for i := 0; i < steps; i++ {
		if err := e.RunProgram(driver); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if i == 0 {
			w0 = e.Store.MustGet("w")
		}
	}
	if r.calls != 2*steps {
		t.Fatalf("sink received %d gradients over %d steps, want 2 per step", r.calls, steps)
	}
	if got := e.Store.MustGet("w"); !tensor.Equal(got, w0) {
		t.Fatalf("trace mode updated locally despite grad sink: %v -> %v", w0, got)
	}
	if st := e.Stats(); st.GraphSteps != steps-1 {
		t.Fatalf("graph steps %d, want %d", st.GraphSteps, steps-1)
	}
}

// TestGradSinkSetAfterCompile installs a sink only after graphs with
// baked-in update ops are cached: those entries must not bypass the sink.
// Removing the sink again brings the local updates back.
func TestGradSinkSetAfterCompile(t *testing.T) {
	for _, mode := range []core.Mode{core.Janus, core.Trace} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := core.DefaultJanusConfig()
			cfg.Mode, cfg.ProfileIters, cfg.Seed = mode, 2, 7
			e := core.NewEngine(cfg)
			driver := minipy.MustParse(sinkProg)
			run := func(n int) {
				t.Helper()
				for i := 0; i < n; i++ {
					if err := e.RunProgram(driver); err != nil {
						t.Fatalf("step: %v", err)
					}
				}
			}
			run(4)
			before := e.Stats().GraphSteps
			if before == 0 {
				t.Fatal("no graph step before the sink was set")
			}
			var r gradRecorder
			e.SetGradSink(r.sink)
			w0 := e.Store.MustGet("w")
			const steps = 3
			run(steps)
			if r.calls != 2*steps {
				t.Fatalf("sink received %d gradients over %d steps, want 2 per step", r.calls, steps)
			}
			if got := e.Store.MustGet("w"); !tensor.Equal(got, w0) {
				t.Fatalf("local parameter moved under the sink: %v -> %v", w0, got)
			}
			if st := e.Stats(); st.GraphSteps != before+steps {
				t.Fatalf("graph steps %d, want %d: sink steps left the graph path", st.GraphSteps, before+steps)
			}
			e.SetGradSink(nil)
			run(1)
			if got := e.Store.MustGet("w"); tensor.Equal(got, w0) {
				t.Fatal("local update did not resume after the sink was removed")
			}
		})
	}
}

// TestSinkGradientsAreNotPoolBuffers holds the gradients of one static step
// across the following steps, reading them from another goroutine while
// those steps run: a gradient that was a pool buffer would be overwritten
// (and, under -race, reported as a data race).
func TestSinkGradientsAreNotPoolBuffers(t *testing.T) {
	const seed = 3
	m, err := models.Get("LeNet")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultJanusConfig()
	cfg.Seed, cfg.PyOverheadNs, cfg.ProfileIters = seed, -1, 1
	e := core.NewEngine(cfg)
	var r gradRecorder
	e.SetGradSink(r.sink)
	inst, err := m.Build(e, seed)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // profile, compile, replay
		if _, err := inst.Step(i); err != nil {
			t.Fatalf("warm-up step %d: %v", i, err)
		}
		r.take()
	}
	if _, err := inst.Step(3); err != nil {
		t.Fatal(err)
	}
	held := r.take()
	want := map[string]*tensor.Tensor{}
	for name, g := range held {
		want[name] = g.Clone()
	}
	hits := e.Stats().PoolHits
	start, done := make(chan struct{}), make(chan float64)
	go func() {
		<-start
		sum := 0.0
		for _, g := range held {
			for _, v := range g.Data() {
				sum += v
			}
		}
		done <- sum
	}()
	close(start)
	for i := 4; i < 7; i++ {
		if _, err := inst.Step(i); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	<-done
	if e.Stats().PoolHits == hits {
		t.Fatal("the following steps reused no pool buffer")
	}
	for name, g := range held {
		if !tensor.Equal(g, want[name]) {
			t.Fatalf("held gradient %s changed: %v -> %v", name, want[name], g)
		}
	}
}
