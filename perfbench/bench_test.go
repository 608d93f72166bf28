package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {50, 3}, {100, 5}, {25, 2}, {90, 4.6},
	} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !reflect.DeepEqual(xs, []float64{5, 1, 4, 2, 3}) {
		t.Errorf("percentile reordered its input: %v", xs)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of nothing should be NaN")
	}
	// Failed requests count as +Inf latency and must not turn a percentile
	// into NaN.
	inf := math.Inf(1)
	if got := percentile([]float64{1, 2, inf, inf}, 99); !math.IsInf(got, 1) {
		t.Errorf("p99 with failures = %v, want +Inf", got)
	}
	if got := percentile([]float64{1, 2, 3, inf}, 50); got != 2.5 {
		t.Errorf("p50 with one failure = %v, want 2.5", got)
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), the definition the run-to-run spread of
// every end-to-end metric is judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{3.5, 1.25}, 0.6875, 4.0625},
		{[]float64{10, 2, 7, 7, 1, 9, 4}, 2, 9},
	} {
		q1, q3, err := quartiles(c.xs)
		if err != nil || math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v", c.xs, q1, q3, err, c.q1, c.q3)
		}
	}
	if _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one value should fail")
	}
	spread, err := relSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if err != nil || math.Abs(spread-5.5/5.5) > 1e-12 {
		t.Errorf("relSpread = %v, %v; want 1", spread, err)
	}
}

func TestGeomeanAndRatio(t *testing.T) {
	if got := geomean([]float64{2, 8}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean = %v, want 4", got)
	}
	if !math.IsNaN(geomean([]float64{1, 0})) {
		t.Error("geomean with a zero should be NaN")
	}
	if ratio(1, 0) != 0 || ratio(3, 2) != 1.5 {
		t.Error("ratio")
	}
}

func TestChunkRate(t *testing.T) {
	ms := time.Millisecond
	// Three chunks of two operations: 2 ms, 2 ms and a stalled 20 ms.
	ts := []time.Duration{ms, ms, ms, ms, 10 * ms, 10 * ms}
	if got := chunkRate(ts, 4, 3); math.Abs(got-4000) > 1e-9 {
		t.Errorf("chunkRate = %v, want 4000 (median chunk: 2 ops x 4 items in 2 ms)", got)
	}
	// The last chunk takes the remainder: chunks {1,1} and {1,1,4} ms.
	ts = []time.Duration{ms, ms, ms, ms, 4 * ms}
	if got, want := chunkRate(ts, 1, 2), (1000.0+500.0)/2; math.Abs(got-want) > 1e-9 {
		t.Errorf("chunkRate with remainder = %v, want %v", got, want)
	}
	if got := chunkRate([]time.Duration{ms}, 1, 9); math.Abs(got-1000) > 1e-9 {
		t.Errorf("chunkRate with k > len = %v, want 1000", got)
	}
	if !math.IsNaN(chunkRate(nil, 1, 3)) {
		t.Error("chunkRate of no times should be NaN")
	}
}

func TestScheduleDeterministicPerSeed(t *testing.T) {
	a := schedule(7, 2, 300, 2*time.Second)
	b := schedule(7, 2, 300, 2*time.Second)
	if len(a) == 0 || !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed gave different schedules (%d vs %d arrivals)", len(a), len(b))
	}
	if reflect.DeepEqual(a, schedule(8, 2, 300, 2*time.Second)) {
		t.Error("different seeds gave the same schedule")
	}
	if reflect.DeepEqual(a, schedule(7, 3, 300, 2*time.Second)) {
		t.Error("different phases gave the same schedule")
	}
	// Open loop at the requested rate: due times ascend within the phase
	// and the count is near rate x duration.
	if n := len(a); n < 500 || n > 700 {
		t.Errorf("%d arrivals in 2 s at 300/s", n)
	}
	writes := 0
	for i, x := range a {
		if x.due < 0 || x.due >= 2*time.Second || (i > 0 && x.due < a[i-1].due) {
			t.Fatalf("arrival %d due at %v", i, x.due)
		}
		if x.train {
			writes++
			if x.path != "/v1/call" || x.rows != trainRows {
				t.Errorf("write %d: %s with %d rows", i, x.path, x.rows)
			}
		} else if x.path != "/v1/infer" {
			t.Errorf("read %d goes to %s", i, x.path)
		}
	}
	if share := float64(writes) / float64(len(a)); share < 0.05 || share > 0.15 {
		t.Errorf("write share %.3f, want about %.2f", share, trainShare)
	}
}

func TestMetricNames(t *testing.T) {
	for _, n := range []string{"setup_s", "core.ref_max_rel_diff.lstm", "ps.pull_ms_p50", "9a-b"} {
		if !validName(n) {
			t.Errorf("%q should be valid", n)
		}
	}
	for _, n := range []string{"", "_x", ".x", "a b", "a/b", strings.Repeat("a", 65), "é"} {
		if validName(n) {
			t.Errorf("%q should be invalid", n)
		}
	}
	seen := map[string]bool{}
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			if !validName(d.name) || !validUnit(d.unit) || seen[d.name] ||
				(d.better != "lower" && d.better != "higher") {
				t.Errorf("bad or duplicate metric %+v", d)
			}
			seen[d.name] = true
		}
	}
}

// TestCatalogMatchesBenchmarkJSON keeps BENCHMARK.json and the metrics the
// program prints in step.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit || got[i].Better != want[i].better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no implementation", w.Name)
		}
	}
}

func TestRegistryDeltaReaders(t *testing.T) {
	reg := obs.NewRegistry()
	hits := reg.Counter("janus_engine_cache_lookups_total", "", "result", "hit")
	reg.Counter("janus_engine_cache_lookups_total", "", "result", "miss").Add(2)
	h := reg.Histogram("janus_serve_batch_wait_seconds", "", []float64{0.001, 0.002, 0.004}, "fn", "f")
	hits.Add(5)
	h.Observe(0.0005)
	before, err := scrape(reg.WriteText)
	if err != nil {
		t.Fatal(err)
	}
	hits.Add(3)
	for _, v := range []float64{0.0015, 0.0015, 0.003, 0.003} {
		h.Observe(v)
	}
	after, err := scrape(reg.WriteText)
	if err != nil {
		t.Fatal(err)
	}
	d := after.delta(before)
	if got := d.sum("janus_engine_cache_lookups_total", "result", "hit"); got != 3 {
		t.Errorf("hit delta %v, want 3", got)
	}
	if got := d.sum("janus_engine_cache_lookups_total"); got != 3 {
		t.Errorf("family delta %v, want 3", got)
	}
	if got := after.sum("janus_engine_cache_lookups_total"); got != 10 {
		t.Errorf("family total %v, want 10", got)
	}
	if got := d.histCount("janus_serve_batch_wait_seconds"); got != 4 {
		t.Errorf("histogram count delta %v, want 4", got)
	}
	if got := d.histSum("janus_serve_batch_wait_seconds", "fn", "f"); math.Abs(got-0.009) > 1e-12 {
		t.Errorf("histogram sum delta %v, want 0.009", got)
	}
	// Delta buckets: two in (0.001, 0.002], two in (0.002, 0.004]. The
	// median's rank 2 ends the second bucket; p75's rank 3 is halfway
	// through the third.
	if got := d.histQuantile("janus_serve_batch_wait_seconds", 0.5); math.Abs(got-0.002) > 1e-12 {
		t.Errorf("p50 %v, want 0.002", got)
	}
	if got := d.histQuantile("janus_serve_batch_wait_seconds", 0.75); math.Abs(got-0.003) > 1e-12 {
		t.Errorf("p75 %v, want 0.003", got)
	}
	if got := d.histQuantile("janus_serve_batch_wait_seconds", 0.5, "fn", "other"); got != 0 {
		t.Errorf("quantile of unmatched series %v, want 0", got)
	}
	merged := merge(d, d)
	if got := merged.sum("janus_engine_cache_lookups_total", "result", "hit"); got != 6 {
		t.Errorf("merged hits %v, want 6", got)
	}
}

func TestParsePromLabels(t *testing.T) {
	s, err := parseProm(strings.NewReader(`# HELP x help
# TYPE x counter
x{a="1",op="Conv2D"} 2
x{a="q\"uote",op="MatMul"} 3
y 4.5
z_bucket{le="+Inf"} 7
`))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.sum("x"); got != 5 {
		t.Errorf("sum x = %v", got)
	}
	if got := s.sum("x", "a", `q"uote`); got != 3 {
		t.Errorf("escaped label match = %v", got)
	}
	if got := s.sum("y"); got != 4.5 {
		t.Errorf("unlabelled = %v", got)
	}
	if got := opSeconds(promSnapshot{`janus_profile_op_seconds_total{op="Conv2D"}`: 1, `janus_profile_op_seconds_total{op="MatMul"}`: 2}, "Conv"); got != 1 {
		t.Errorf("opSeconds = %v", got)
	}
	if _, err := parseProm(strings.NewReader("novalue\n")); err == nil {
		t.Error("a line without a value should fail")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []spanRec{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "a", Start: 30, End: 60},  // overlaps 2
		{ID: 4, Parent: 1, Name: "b", Start: 90, End: 120}, // runs past root
		{ID: 5, Parent: 2, Name: "c", Start: 15, End: 20},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"root": 100 - 50 - 10, "a": 30 - 5 + 30, "b": 30, "c": 5}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestTracerOffRecordsNothing(t *testing.T) {
	var nilTr *tracer
	nilTr.start("x", 0, 0).end()
	off := newTracer()
	off.start("x", 0, 0).end()
	off.addID(1, "x", 0, 0, time.Now(), time.Now())
	if len(off.snapshot()) != 0 || off.reserve() != 0 {
		t.Error("a disabled tracer recorded spans")
	}
	on := newTracer()
	on.enable(true)
	root := on.reserve()
	on.start("child", root, 7).end()
	on.addID(root, "root", 0, 7, time.Now(), time.Now())
	spans := on.snapshot()
	if len(spans) != 2 || spans[0].Parent != root || spans[1].ID != root || spans[0].Op != 7 {
		t.Errorf("spans %+v", spans)
	}
}

func TestCorrectIgnoresOnlyKnownFailures(t *testing.T) {
	defs := []metricDef{{"x", "count", "higher"}}
	correct := func(res *result) bool {
		var b strings.Builder
		if err := printResult(&b, res, defs, true); err != nil {
			t.Fatal(err)
		}
		var out struct {
			Correct bool `json:"correct"`
			Failed  int  `json:"failed"`
		}
		if err := json.Unmarshal([]byte(b.String()), &out); err != nil {
			t.Fatal(err)
		}
		if out.Failed != res.failed {
			t.Errorf("failed = %d, want %d", out.Failed, res.failed)
		}
		return out.Correct
	}
	m := map[string]float64{"x": 1}
	if !correct(&result{metrics: m, attempted: 10}) {
		t.Error("no failure should be correct")
	}
	if !correct(&result{metrics: m, attempted: 10, failed: 3, known: 3}) {
		t.Error("only known failures should be correct")
	}
	if correct(&result{metrics: m, attempted: 10, failed: 4, known: 3}) {
		t.Error("a failure beyond the known ones should not be correct")
	}
	if correct(&result{metrics: m}) {
		t.Error("nothing attempted should not be correct")
	}
}
