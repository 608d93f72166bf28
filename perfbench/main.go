// Command perfbench is the repository's benchmark: three seeded workloads
// (train, serve, dist) run against the engine, the model server and the
// parameter server as they ship, with every output checked against an
// independent reference. An untraced run prints the end-to-end metrics; a
// traced run (--trace 1) prints the per-layer metrics, attributed from spans
// the benchmark records around its own calls into each layer plus deltas of
// the registries the program already exports. See README.md.
//
// Run from the repository root:
//
//	bash perfbench/run.sh --workload serve --seed 3 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"
)

// nproc is the parallelism every workload is configured with: executor
// workers, serving pool size, replica count, and the number of
// load-generating goroutines or connections. It is the core count of the
// box the benchmark was sized on, fixed so results do not depend on the
// host.
const nproc = 2

// runConfig is what every workload receives.
type runConfig struct {
	seed    uint64
	seconds float64
	traced  bool
	tr      *tracer
}

// result is what every workload returns.
type result struct {
	metrics   map[string]float64
	attempted int
	failed    int
	// known counts the failed operations that are the one known program
	// defect (zooProgram.knownBadUpdate): they count in failed and
	// success_frac but leave correct true, so that correct still turns
	// false on any new failure.
	known int
}

// note prints a human-readable progress line; the JSON result line always
// comes last.
func (r *result) note(format string, args ...any) {
	fmt.Printf(format+"\n", args...)
}

// check counts one attempted operation and whether it failed.
func (r *result) check(ok bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
}

var workloads = map[string]func(runConfig) (*result, error){
	"train": runTrain,
	"serve": runServe,
	"dist":  runDist,
}

func main() {
	workload := flag.String("workload", "", "workload to run: train, serve or dist")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 runs the traced variant and prints per-layer metrics")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for span dumps")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace, *out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds, trace int, out string) error {
	fn, ok := workloads[workload]
	switch {
	case !ok:
		return fmt.Errorf("unknown workload %q (want train, serve or dist)", workload)
	case seconds < 1:
		return fmt.Errorf("--seconds must be at least 1")
	case trace != 0 && trace != 1:
		return fmt.Errorf("--trace must be 0 or 1")
	}
	cfg := runConfig{seed: uint64(seed), seconds: float64(seconds), traced: trace == 1,
		tr: newTracer()}
	res, err := fn(cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", workload, err)
	}
	defs := endToEnd
	if cfg.traced {
		defs = perLayer
		if err := os.MkdirAll(out, 0o755); err != nil {
			return err
		}
		path := filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
		if err := writeJSONL(path, cfg.tr.snapshot()); err != nil {
			return err
		}
		res.note("spans written to %s", path)
	}
	return printResult(os.Stdout, res, defs, !cfg.traced)
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResult prints the JSON result line with every metric of defs. A
// required metric the workload did not set is an error; a per-layer metric
// of a layer the workload does not use reads 0. correct is false when any
// operation failed other than the known defect's.
func printResult(w io.Writer, res *result, defs []metricDef, required bool) error {
	ms := map[string]metricOut{}
	for _, d := range defs {
		if !validName(d.name) || !validUnit(d.unit) {
			return fmt.Errorf("invalid metric name or unit %q %q", d.name, d.unit)
		}
		v, ok := res.metrics[d.name]
		if !ok && required {
			return fmt.Errorf("end-to-end metric %s not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		ms[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{res.failed == res.known && res.attempted > 0, res.attempted, res.failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

// heapSampler tracks the peak live heap — the bytes the garbage collector
// found reachable at the end of each cycle — by polling runtime/metrics (no
// stop-the-world) every 2 ms on one goroutine. Unlike the momentary heap
// size, which swings with the collector's pacing between cycles, the live
// heap is what the program holds. Which in-flight step a cycle happens to
// end in still moves a single maximum by 10%, so the figure is the median
// over half-second windows of each window's peak.
type heapSampler struct {
	stop  chan struct{}
	wg    sync.WaitGroup
	peaks []float64 // per window, bytes; written by the sampler goroutine
}

const heapWindow = 500 * time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		var peak uint64
		windowEnd := time.Now().Add(heapWindow)
		for {
			metrics.Read(sample)
			peak = max(peak, sample[0].Value.Uint64())
			if now := time.Now(); now.After(windowEnd) {
				h.peaks = append(h.peaks, float64(peak))
				peak, windowEnd = 0, now.Add(heapWindow)
			}
			select {
			case <-h.stop:
				h.peaks = append(h.peaks, float64(peak))
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stopMB stops the sampler and returns the median window peak in MiB.
func (h *heapSampler) stopMB() float64 {
	close(h.stop)
	h.wg.Wait()
	return median(h.peaks) / (1 << 20)
}

// mallocs reads the cumulative heap allocation count.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// selfTimeMetrics fills "<span>.self_ms" per root operation from spans.
func selfTimeMetrics(m map[string]float64, spans []spanRec, rootOps int) {
	st := selfTimes(spans)
	for _, name := range spanNames {
		m[name+".self_ms"] = ratio(float64(st[name])/1e6, float64(rootOps))
	}
}
