package main

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/minipy"
	"repro/internal/tensor"
)

const (
	// trainSetupReps is how many times the untraced train run sets the
	// three programs up from source; setup_s is the median of the sums.
	trainSetupReps = 15
	// trainWarmupSteps run after the first graph step and before timing,
	// so pools and caches are filled when the clock starts.
	trainWarmupSteps = 20
	// refLossTol bounds the relative difference between the graph engine's
	// loss and the imperative interpreter's at the same step, both started
	// from identical parameters and program state (lockstep). The two must
	// compute the same function; 1e-9 leaves room only for floating-point
	// reassociation between fused graph kernels and interpreted ops.
	refLossTol = 1e-9
	// refUpdateTol bounds the relative difference between the two engines'
	// parameter updates of one lockstep step (see updateDiff). Where the
	// graph's gradients are right (LeNet, TreeLSTM) the updates agree to
	// 1e-11, the graph kernels' reassociation; 1e-9 keeps two orders of
	// margin, and a wrong gradient moves an update by a large share of its
	// own size.
	refUpdateTol = 1e-9
	// evalCalls is how many forward calls per measured second, per engine,
	// the untraced run makes for max_rps.
	evalCalls = 1500
	// rateChunks is how many contiguous chunks a timed phase is cut into
	// for its throughput: the median chunk rate, so a host stall that
	// slows one chunk does not move the figure.
	rateChunks = 9
)

// trainConfig is the engine configuration of the train workload: the full
// JANUS engine as it ships, host-bound (no simulated dispatch delay), with
// nproc executor workers.
func trainConfig(seed uint64, mode core.Mode) core.Config {
	cfg := core.DefaultJanusConfig()
	cfg.Mode = mode
	cfg.Workers = nproc
	cfg.PyOverheadNs = -1
	cfg.Seed = seed + 1 // 0 would leave the interpreter unseeded
	return cfg
}

// stepper drives one zoo program on one engine, step by step.
type stepper struct {
	e      *core.Engine
	feed   func(*core.Engine, int)
	driver *minipy.Program
	losses []float64
	// base is the engine's registry before set-up.
	base promSnapshot
}

// setupProgram builds an engine for p, parses and loads the program and
// steps it to its first graph step (Janus) or through the profiling
// window's length (Imperative). It returns the stepper, the set-up time
// (source to first graph step; input generation excluded) and the parse
// time.
func setupProgram(p zooProgram, seed uint64, mode core.Mode, tr *tracer, op int64) (*stepper, time.Duration, time.Duration, error) {
	feed := p.feeder(seed)
	e := core.NewEngine(trainConfig(seed, mode))
	base, err := scrape(e.Registry().WriteText)
	if err != nil {
		return nil, 0, 0, err
	}
	root := tr.reserve()
	t0 := time.Now()
	sp := tr.start("minipy.parse", root, op)
	defs, err := minipy.Parse(p.defs)
	var driver *minipy.Program
	if err == nil {
		driver, err = minipy.Parse(p.driver)
	}
	sp.end()
	parse := time.Since(t0)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("%s: parse: %w", p.name, err)
	}
	sp = tr.start("core.load", root, op)
	err = e.RunProgram(defs)
	sp.end()
	if err != nil {
		return nil, 0, 0, fmt.Errorf("%s: load: %w", p.name, err)
	}
	s := &stepper{e: e, feed: feed, driver: driver, base: base}
	for mode == core.Janus && e.Stats().GraphSteps == 0 {
		if len(s.losses) == 50 {
			return nil, 0, 0, fmt.Errorf("%s: no graph step after 50 steps", p.name)
		}
		if _, err := s.step(tr, root); err != nil {
			return nil, 0, 0, err
		}
	}
	setup := time.Since(t0)
	tr.addID(root, "bench.setup", 0, op, t0, t0.Add(setup))
	return s, setup, parse, nil
}

// step feeds and runs the next step, recording its loss.
func (s *stepper) step(tr *tracer, parent int64) (float64, error) {
	i := len(s.losses)
	s.feed(s.e, i)
	sp := tr.start("core.step", parent, int64(i))
	err := s.e.RunProgram(s.driver)
	sp.end()
	if err != nil {
		return 0, fmt.Errorf("step %d: %w", i, err)
	}
	loss, err := readLoss(s.e)
	if err != nil {
		return 0, fmt.Errorf("step %d: %w", i, err)
	}
	s.losses = append(s.losses, loss)
	return loss, nil
}

// timed is one program's measured phase.
type timed struct {
	steps     int
	wall      time.Duration
	stepTimes []time.Duration
	// delta is the registry change over the timed steps; life over the
	// engine's whole life (set-up, warm-up and timed steps).
	delta, life promSnapshot
	mallocs     uint64
}

// runTimed warms s up and times n steps, each traced as a bench.step root
// span around the feed and a core.step child around the engine call.
// Calibration samples run between steps, outside the timed intervals.
func runTimed(s *stepper, n int, tr *tracer, cal *calibrator) (*timed, error) {
	for i := 0; i < trainWarmupSteps; i++ {
		if _, err := s.step(nil, 0); err != nil {
			return nil, err
		}
	}
	before, err := scrape(s.e.Registry().WriteText)
	if err != nil {
		return nil, err
	}
	t := &timed{steps: n, stepTimes: make([]time.Duration, n)}
	m0 := mallocs()

	for i := 0; i < n; i++ {
		cal.tick()
		t0 := time.Now()
		root := tr.reserve()
		if _, err := s.step(tr, root); err != nil {
			return nil, err
		}
		t1 := time.Now()
		tr.addID(root, "bench.step", 0, int64(len(s.losses)-1), t0, t1)
		t.stepTimes[i] = t1.Sub(t0)
		t.wall += t.stepTimes[i]
	}
	t.mallocs = mallocs() - m0
	after, err := scrape(s.e.Registry().WriteText)
	if err != nil {
		return nil, err
	}
	t.delta, t.life = after.delta(before), after.delta(s.base)
	return t, nil
}

// stepsFor sizes a program's fixed step count to a third of the run.
func stepsFor(p zooProgram, seconds float64) int {
	return max(200, int(math.Round(p.stepsPerSecond*seconds/3)))
}

func runTrain(cfg runConfig) (*result, error) {
	res := &result{metrics: map[string]float64{}}
	m := res.metrics
	var runs []*stepper
	var tim []*timed
	if !cfg.traced {
		heap := startHeapSampler()
		cal := newCalibrator()
		var setupSums []float64
		for r := 0; r < trainSetupReps; r++ {
			runs = runs[:0]
			sum := 0.0
			for pi, p := range trainPrograms {
				cal.sample()
				s, setup, _, err := setupProgram(p, cfg.seed, core.Janus, nil, int64(pi))
				if err != nil {
					return nil, err
				}
				sum += setup.Seconds()
				runs = append(runs, s)
			}
			setupSums = append(setupSums, sum)
		}
		setupSlow := cal.slowdownSince(0)
		// Each program's figures are scaled by the host's slowdown over
		// its own timed steps, the eval rate by that over the eval calls.
		var rates, p50s, scaledRates, scaledP50s []float64
		// max_rps calls the trained LeNet engine and a freshly set-up one.
		fresh, _, _, err := setupProgram(trainPrograms[0], cfg.seed, core.Janus, nil, 0)
		if err != nil {
			return nil, err
		}
		ev := newEvaluator(cfg.seed, runs[0].e, fresh.e)
		for pi, p := range trainPrograms {
			mk := cal.mark()
			t, err := runTimed(runs[pi], stepsFor(p, cfg.seconds), nil, cal)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", p.name, err)
			}
			slow := cal.slowdownSince(mk)
			rates = append(rates, chunkRate(t.stepTimes, float64(p.items), rateChunks))
			p50s = append(p50s, percentile(ms(t.stepTimes), 50))
			scaledRates = append(scaledRates, rates[pi]*slow)
			scaledP50s = append(scaledP50s, p50s[pi]/slow)
			res.note("train %-8s %6d steps %8.0f %s/s  step p50 %.3f ms p99 %.3f ms (unscaled); host slowdown %.3f",
				p.name, t.steps, rates[pi], p.unit, p50s[pi], percentile(ms(t.stepTimes), 99), slow)
			if err := ev.block(int(evalCalls*cfg.seconds)/len(trainPrograms), cal, res); err != nil {
				return nil, err
			}
		}
		rps, evalSlow := median(ev.rates), cal.slowdownOf(ev.kernel)
		res.note("train lenet eval: %d timed forward calls on %d engines at once, median %.0f calls/s (unscaled)",
			ev.calls, len(ev.lanes), rps)
		m["peak_heap_mb"] = heap.stopMB()
		res.note("train set-up seconds: %s", spreadNote(setupSums))
		res.note("train unscaled: items_per_s %.1f latency_p50_ms %.4f max_rps %.1f setup_s %.5f; host slowdown: set-up %.3f, eval %.3f (%d kernel samples)",
			geomean(rates), geomean(p50s), rps, median(setupSums), setupSlow, evalSlow, len(cal.samples))
		m["setup_s"] = median(setupSums) / setupSlow
		m["items_per_s"] = geomean(scaledRates)
		m["latency_p50_ms"] = geomean(scaledP50s)
		m["max_rps"] = rps * evalSlow
	} else {
		// Untraced baseline of the same timed phase, for the overhead ratio.
		base := 0.0
		for pi, p := range trainPrograms {
			s, _, _, err := setupProgram(p, cfg.seed, core.Janus, nil, int64(pi))
			if err != nil {
				return nil, err
			}
			t, err := runTimed(s, stepsFor(p, cfg.seconds), nil, nil)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", p.name, err)
			}
			base += t.wall.Seconds()
		}
		cfg.tr.enable(true)
		var parse time.Duration
		traced := 0.0
		for pi, p := range trainPrograms {
			s, _, ps, err := setupProgram(p, cfg.seed, core.Janus, cfg.tr, int64(pi))
			if err != nil {
				return nil, err
			}
			parse += ps
			t, err := runTimed(s, stepsFor(p, cfg.seconds), cfg.tr, nil)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", p.name, err)
			}
			traced += t.wall.Seconds()
			runs = append(runs, s)
			tim = append(tim, t)
		}
		cfg.tr.enable(false)
		m["obs.trace_overhead_ratio"] = traced / base
		m["minipy.parse_ms"] = float64(parse) / 1e6
		trainLayerMetrics(m, runs, tim)
		steps := 0
		for _, t := range tim {
			steps += t.steps
		}
		selfTimeMetrics(m, cfg.tr.snapshot(), steps)
	}

	// Lockstep reference, untimed: replay every step of each measured
	// engine on a fresh graph engine and on the imperative interpreter.
	var lossMax, gradMax float64
	for pi, p := range trainPrograms {
		ref, err := lockstep(p, cfg.seed, runs[pi].losses, res)
		if err != nil {
			return nil, fmt.Errorf("%s reference: %w", p.name, err)
		}
		m["core.ref_max_rel_diff."+p.name] = math.Max(ref.loss, ref.grad)
		m["core.ref_grad_max_rel_diff."+p.name] = ref.grad
		lossMax, gradMax = math.Max(lossMax, ref.loss), math.Max(gradMax, ref.grad)
		res.note("train %-8s reference: %d steps, loss max rel diff %.3g (tol %g), update max rel diff %.3g at step %d (tol %g), %d failed",
			p.name, len(runs[pi].losses), ref.loss, refLossTol, ref.grad, ref.gradStep, refUpdateTol, ref.failed)
		if p.knownBadUpdate && ref.failed > 0 {
			res.note("train %-8s KNOWN DEFECT: the graph engine's parameter updates depart from the interpreter's; the %d failed steps count in failed and success_frac",
				p.name, ref.failed)
		}
	}
	m["core.ref_max_rel_diff"] = math.Max(lossMax, gradMax)
	m["core.ref_grad_max_rel_diff"] = gradMax
	m["success_frac"] = 1 - float64(res.failed)/float64(res.attempted)
	return res, nil
}

// evaluator calls LeNet's loss function forward (no optimize) through
// Engine.Call on nproc LeNet engines at once, one goroutine each, cycling
// over the seeded batches: the engine's inference path, which the training
// steps do not take, at the rate that keeps every CPU busy. Each call
// checks that the loss is finite and, after the first pass over the
// batches, bitwise equal to the previous pass's loss on the same batch (the
// parameters do not change between calls).
type evaluator struct {
	lanes  []*evalLane
	calls  int
	rates  []float64 // calls/s per chunk
	kernel []float64 // calibration samples, one before each chunk
}

// evalLane is one goroutine's engine and inputs.
type evalLane struct {
	e          *core.Engine
	args       [][]minipy.Value
	prev       []float64
	calls      int
	ok, failed int
	err        error
}

// evalWarm is how many untimed calls each engine makes before the first
// timed one, so the call's graph is converted and cached when the clock
// starts.
const evalWarm = 40

func newEvaluator(seed uint64, engines ...*core.Engine) *evaluator {
	const batches = 8
	ev := &evaluator{}
	for _, e := range engines {
		ds := data.SynthImages(tensor.NewRNG(seed), 64, 1, 8, 8, 4)
		l := &evalLane{e: e, prev: make([]float64, batches)}
		for i := 0; i < batches; i++ {
			x, y := ds.Batch(i, 8)
			l.args = append(l.args, []minipy.Value{minipy.NewTensor(x), minipy.NewTensor(y)})
		}
		ev.lanes = append(ev.lanes, l)
	}
	return ev
}

// run makes n calls, stopping at the first error.
func (l *evalLane) run(n int) {
	for k := 0; k < n && l.err == nil; k++ {
		i, b := l.calls, l.calls%len(l.args)
		l.calls++
		v, err := l.e.Call("lenet_step", l.args[b])
		if err != nil {
			l.err = fmt.Errorf("lenet eval call %d: %w", i, err)
			return
		}
		t, ok := v.(*minipy.TensorVal)
		if !ok {
			l.err = fmt.Errorf("lenet eval call %d returned %s", i, v.TypeName())
			return
		}
		loss := t.T().Item()
		if finite(loss) && (i < len(l.args) || loss == l.prev[b]) {
			l.ok++
		} else {
			l.failed++
		}
		l.prev[b] = loss
	}
}

// chunk runs n calls on every lane at once and returns the wall time.
func (ev *evaluator) chunk(n int) (time.Duration, error) {
	var wg sync.WaitGroup
	t0 := time.Now()
	for _, l := range ev.lanes {
		wg.Add(1)
		go func(l *evalLane) {
			defer wg.Done()
			l.run(n)
		}(l)
	}
	wg.Wait()
	wall := time.Since(t0)
	for _, l := range ev.lanes {
		if l.err != nil {
			return 0, l.err
		}
	}
	return wall, nil
}

// block makes n timed calls per lane in rateChunks chunks, each preceded
// by a calibration sample (the first block also by evalWarm untimed calls
// per lane). The untraced train run plays one block after each program's
// timed phase, so the calls are spread over the run.
func (ev *evaluator) block(n int, cal *calibrator, res *result) error {
	if ev.calls == 0 {
		if _, err := ev.chunk(evalWarm); err != nil {
			return err
		}
	}
	per := max(1, n/rateChunks)
	for c := 0; c < rateChunks; c++ {
		cal.sample()
		ev.kernel = append(ev.kernel, cal.samples[len(cal.samples)-1])
		wall, err := ev.chunk(per)
		if err != nil {
			return err
		}
		ev.calls += per * len(ev.lanes)
		ev.rates = append(ev.rates, float64(per*len(ev.lanes))/wall.Seconds())
	}
	for _, l := range ev.lanes {
		res.attempted += l.ok + l.failed
		res.failed += l.failed
		l.ok, l.failed = 0, 0
	}
	return nil
}

// trainLayerMetrics fills the engine-side per-layer metrics from the
// registry deltas of the traced engines.
func trainLayerMetrics(m map[string]float64, runs []*stepper, tim []*timed) {
	var life, delta []promSnapshot
	var p99s []float64
	steps, mall := 0, uint64(0)
	nodes := 0
	for pi, p := range trainPrograms {
		t := tim[pi]
		life = append(life, t.life)
		delta = append(delta, t.delta)
		steps += t.steps
		mall += t.mallocs
		nodes += runs[pi].e.PassSummary().Nodes
		p99s = append(p99s, percentile(ms(t.stepTimes), 99))
		m["train.items_per_s."+p.name] = float64(t.steps*p.items) / t.wall.Seconds()
		m["exec.execute_ms_per_step."+p.name] = 1e3 * t.delta.histSum("janus_engine_phase_seconds", "phase", "execute") / float64(t.steps)
		m["tensor.allocs_per_step."+p.name] = float64(t.mallocs) / float64(t.steps)
	}
	engineLayerMetrics(m, merge(life...), merge(delta...), float64(steps))
	m["bench.latency_p99_ms"] = geomean(p99s)
	m["passes.nodes"] = float64(nodes)
	m["tensor.allocs_per_step"] = float64(mall) / float64(steps)
}

// engineLayerMetrics fills the metrics every engine registry exposes, from
// its whole-life delta (set-up layers) and its measured-phase delta
// (per-step layers) over steps measured steps.
func engineLayerMetrics(m map[string]float64, life, delta promSnapshot, steps float64) {
	const phase = "janus_engine_phase_seconds"
	hits := delta.sum("janus_engine_cache_lookups_total", "result", "hit")
	misses := delta.sum("janus_engine_cache_lookups_total", "result", "miss")
	m["core.cache_hit_ratio"] = ratio(hits, hits+misses)
	m["core.conversions"] = life.sum("janus_engine_conversions_total")
	m["core.fallbacks"] = life.sum("janus_engine_fallbacks_total")
	graph := life.sum("janus_engine_steps_total", "path", "graph")
	m["core.graph_step_ratio"] = ratio(graph, graph+life.sum("janus_engine_steps_total", "path", "imperative"))
	m["minipy.imperative_ms"] = 1e3 * life.histSum(phase, "phase", "imperative")
	m["convert.ms"] = 1e3 * life.histSum(phase, "phase", "convert")
	m["passes.ms"] = 1e3 * life.histSum(phase, "phase", "compile")
	m["passes.rewrites"] = life.sum("janus_pass_rewrites_total")
	m["exec.plan_build_ms"] = 1e3 * life.histSum("janus_exec_plan_build_seconds")
	m["exec.execute_ms_per_step"] = ratio(1e3*delta.histSum(phase, "phase", "execute"), steps)
	m["exec.op_calls_per_step"] = ratio(delta.sum("janus_profile_op_calls_total"), steps)
	m["exec.inplace_per_step"] = ratio(delta.sum("janus_exec_inplace_total"), steps)
	m["tensor.conv_ms_per_step"] = ratio(1e3*opSeconds(delta, "Conv"), steps)
	m["tensor.matmul_ms_per_step"] = ratio(1e3*opSeconds(delta, "MatMul"), steps)
	m["tensor.pool_hit_ratio"] = ratio(delta.sum("janus_pool_hits_total"), delta.sum("janus_pool_gets_total"))
}

// opSeconds sums the sampled kernel time of every op whose name starts
// with prefix (e.g. Conv2D and its gradient kernels for "Conv").
func opSeconds(s promSnapshot, prefix string) float64 {
	total := 0.0
	for k, v := range s {
		name, labels := splitSeries(k)
		if name == "janus_profile_op_seconds_total" && len(labels["op"]) >= len(prefix) && labels["op"][:len(prefix)] == prefix {
			total += v
		}
	}
	return total
}

// refResult is one program's lockstep comparison.
type refResult struct {
	loss, grad float64 // max relative loss and update differences
	gradStep   int     // step of the largest update difference
	failed     int
}

// lockstep replays want's steps on a fresh graph engine and on the
// imperative interpreter (the independent reference, Mode Imperative).
// Before every step the interpreter receives the graph engine's parameters,
// so both start each step from the same state and the comparison is per
// step rather than along two drifting trajectories. Each step counts one
// attempted operation, failed when the graph loss departs from the
// interpreter's or from the measured run's (determinism) by more than
// refLossTol. The parameter updates of the two engines are compared too
// and reported as grad; they are not counted as failures (see README.md,
// "Known deviations").
func lockstep(p zooProgram, seed uint64, want []float64, res *result) (refResult, error) {
	var out refResult
	g, _, _, err := setupProgram(p, seed, core.Janus, nil, 0)
	if err != nil {
		return out, err
	}
	im, _, _, err := setupProgram(p, seed, core.Imperative, nil, 0)
	if err != nil {
		return out, err
	}
	// setupProgram stepped g to its first graph step; bring the
	// interpreter to the same step before comparing.
	for len(im.losses) < len(g.losses) {
		if _, err := im.step(nil, 0); err != nil {
			return out, err
		}
	}
	for i := 0; i < len(g.losses); i++ {
		d := math.Max(relDiff(g.losses[i], im.losses[i]), relDiff(g.losses[i], want[i]))
		out.loss = math.Max(out.loss, d)
		ok := d <= refLossTol
		if !ok {
			out.failed++
		}
		res.check(ok)
	}
	for i := len(g.losses); i < len(want); i++ {
		before := g.e.Store.ShardSnapshot(0, 1)
		im.e.Store.SetAll(before)
		lg, err := g.step(nil, 0)
		if err != nil {
			return out, err
		}
		li, err := im.step(nil, 0)
		if err != nil {
			return out, err
		}
		d := math.Max(relDiff(lg, li), relDiff(lg, want[i]))
		out.loss = math.Max(out.loss, d)
		gd := updateDiff(before, g.e.Store.ShardSnapshot(0, 1), im.e.Store.ShardSnapshot(0, 1))
		if gd > out.grad {
			out.grad, out.gradStep = gd, i
		}
		lossOK := d <= refLossTol && !math.IsNaN(lg)
		updateOK := gd <= refUpdateTol
		if !lossOK || !updateOK {
			out.failed++
		}
		res.check(lossOK && updateOK)
		if lossOK && !updateOK && p.knownBadUpdate {
			res.known++
		}
	}
	return out, nil
}

// updateDiff compares two engines' parameter updates from the same
// parameters: per tensor, max|Δa-Δb| / max|Δb|, maximized over tensors.
func updateDiff(before, a, b map[string]*tensor.Tensor) float64 {
	worst := 0.0
	for name, t0 := range before {
		ta, tb := a[name], b[name]
		if ta == nil || tb == nil {
			continue
		}
		d0, da, db := t0.Data(), ta.Data(), tb.Data()
		num, den := 0.0, 0.0
		for k := range d0 {
			num = math.Max(num, math.Abs((da[k]-d0[k])-(db[k]-d0[k])))
			den = math.Max(den, math.Abs(db[k]-d0[k]))
		}
		if num > 0 {
			worst = math.Max(worst, num/math.Max(den, 1e-300))
		}
	}
	return worst
}
