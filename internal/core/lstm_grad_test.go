package core_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/models"
	"repro/internal/tensor"
)

// TestUnrolledLSTMUpdatesMatchImperative runs the LSTM model (variable()
// calls inside an unrolled Python loop) under Janus and under the
// interpreter in lockstep: before every step the interpreter is given the
// graph engine's parameters, and the two engines' parameter updates must
// agree within 1e-9. Each unrolled iteration reads the weights through its
// own Variable node, so a gradient that kept only one node's contribution
// departs here by O(1).
func TestUnrolledLSTMUpdatesMatchImperative(t *testing.T) {
	const seed, steps = 11, 8
	m, err := models.Get("LSTM")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultJanusConfig()
	cfg.Seed, cfg.PyOverheadNs, cfg.Workers = seed, -1, 1
	if !cfg.Unroll {
		t.Fatal("default Janus config no longer unrolls loops")
	}
	jan := core.NewEngine(cfg)
	imp := core.NewEngine(core.Config{Mode: core.Imperative, LR: cfg.LR, Seed: seed, PyOverheadNs: -1})
	ji, err := m.Build(jan, seed)
	if err != nil {
		t.Fatal(err)
	}
	ii, err := m.Build(imp, seed)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < steps; i++ {
		before := jan.Store.ShardSnapshot(0, 1)
		imp.Store.SetAll(before)
		lj, err := ji.Step(i)
		if err != nil {
			t.Fatalf("janus step %d: %v", i, err)
		}
		li, err := ii.Step(i)
		if err != nil {
			t.Fatalf("imperative step %d: %v", i, err)
		}
		if d := math.Abs(lj-li) / math.Abs(li); d > 1e-9 {
			t.Fatalf("step %d: loss %v (janus) vs %v (imperative), rel diff %.3g", i, lj, li, d)
		}
		after := jan.Store.ShardSnapshot(0, 1)
		ref := imp.Store.ShardSnapshot(0, 1)
		for name, t0 := range before {
			if d := updateDiff(t0, after[name], ref[name]); d > 1e-9 {
				t.Fatalf("step %d: %s update departs from the interpreter's by %.3g (relative)", i, name, d)
			}
		}
	}
	if st := jan.Stats(); st.GraphSteps == 0 {
		t.Fatalf("no step ran on the graph executor: %+v", st)
	}
}

// updateDiff is max|Δa-Δb| / max|Δb| for one tensor's updates from t0.
func updateDiff(t0, a, b *tensor.Tensor) float64 {
	num, den := 0.0, 0.0
	for k, v := range t0.Data() {
		da, db := a.Data()[k]-v, b.Data()[k]-v
		num = math.Max(num, math.Abs(da-db))
		den = math.Max(den, math.Abs(db))
	}
	if num == 0 {
		return 0
	}
	return num / den
}
