package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	janus "repro"
)

// serveModel is the load-driver fixture: a batch-parallel two-layer MLP.
const serveModel = `
def predict(x):
    w1 = variable("w1", [16, 32])
    w2 = variable("w2", [32, 8])
    return matmul(relu(matmul(x, w1)), w2)
`

// serveReport is the machine-readable result (-json) the CI regression gate
// consumes (BENCH_serve.json).
type serveReport struct {
	Mode         string  `json:"mode"`
	ReqPerS      float64 `json:"req_per_s"`
	Requests     int64   `json:"requests"`
	Failed       int64   `json:"failed"`
	P50Ms        float64 `json:"p50_ms"`
	P95Ms        float64 `json:"p95_ms"`
	P99Ms        float64 `json:"p99_ms"`
	CacheHitRate float64 `json:"cache_hit_rate"`
	AvgBatch     float64 `json:"avg_batch"`
	// CacheHitRateBucketed is the cache hit rate of a BucketBatch pool
	// driven with variable batch sizes — the number that collapses without
	// shape bucketing (every distinct size converts its own graph).
	CacheHitRateBucketed float64 `json:"cache_hit_rate_bucketed"`
	BucketedEntries      int     `json:"bucketed_entries"`
	// Snapshot round trip: entries saved by the warmed pool, entries a
	// fresh pool restored, and how many conversions the restored pool paid
	// to serve its whole warm measurement (must be 0).
	SnapshotSaved   int    `json:"snapshot_saved"`
	SnapshotLoaded  int    `json:"snapshot_loaded"`
	WarmConversions *int64 `json:"warm_conversions"`
	// Boot-to-first-served latency percentiles across repeated boots: cold
	// pays profile -> convert -> compile, warm restores the snapshot.
	ColdBootP50Ms float64 `json:"cold_boot_p50_ms"`
	ColdBootP99Ms float64 `json:"cold_boot_p99_ms"`
	WarmBootP50Ms float64 `json:"warm_boot_p50_ms"`
	WarmBootP99Ms float64 `json:"warm_boot_p99_ms"`
}

// serveBench measures requests/sec against an in-process janusd: a real
// HTTP server over the serving pool (built through the public handle API),
// hammered by N concurrent clients.
func serveBench(clients int, dur time.Duration, workers, maxBatch int, jsonPath string) {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	// Serving pools disable the simulated CPython dispatch delay by default
	// (serve.Config.withDefaults maps PyOverheadNs 0 → -1), matching the
	// explicit PyOverheadNs=-1 this bench set before the handle-API
	// migration — the numbers stay comparable across the change.
	srv := janus.NewServer(janus.ServerOptions{
		PoolSize: workers,
		MaxBatch: maxBatch,
		Options:  janus.Options{Seed: 42, ProfileIterations: 1},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(client *http.Client, path string, body map[string]any) error {
		buf, _ := json.Marshal(body)
		resp, err := client.Post(ts.URL+path, "application/json", bytes.NewReader(buf))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			var e map[string]any
			_ = json.NewDecoder(resp.Body).Decode(&e)
			return fmt.Errorf("%s -> %d: %v", path, resp.StatusCode, e["error"])
		}
		return nil
	}

	prog, err := srv.Compile(serveModel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "serve bench: compile: %v\n", err)
		os.Exit(1)
	}
	predict, err := prog.Func("predict")
	if err != nil {
		fmt.Fprintf(os.Stderr, "serve bench: resolve: %v\n", err)
		os.Exit(1)
	}
	row := make([]float64, 16)
	for i := range row {
		row[i] = float64(i) * 0.1
	}
	inferBody := map[string]any{"fn": "predict", "x": [][]float64{row}}
	// Warm through the handle API: get past profiling and compile the
	// common batch shapes (the HTTP path below hits the same batcher).
	for i := 0; i < 3; i++ {
		if _, err := predict.Call(context.Background(), janus.Feeds{
			"x": janus.FromRows([][]float64{row}),
		}); err != nil {
			fmt.Fprintf(os.Stderr, "serve bench: warmup: %v\n", err)
			os.Exit(1)
		}
	}

	fmt.Printf("in-process janusd: %d clients, %d workers, max batch %d, %v\n",
		clients, workers, maxBatch, dur)
	var done, failed atomic.Int64
	latencies := make([][]time.Duration, clients)
	deadline := time.Now().Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := &http.Client{}
			for time.Now().Before(deadline) {
				start := time.Now()
				if err := post(client, "/v1/infer", inferBody); err != nil {
					failed.Add(1)
					continue
				}
				latencies[c] = append(latencies[c], time.Since(start))
				done.Add(1)
			}
		}(c)
	}
	wg.Wait()

	var all []time.Duration
	for _, ls := range latencies {
		all = append(all, ls...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	pct := func(p float64) time.Duration {
		if len(all) == 0 {
			return 0
		}
		i := int(p * float64(len(all)-1))
		return all[i]
	}
	st := srv.Stats()
	fmt.Printf("%-22s %12.1f req/s\n", "throughput", float64(done.Load())/dur.Seconds())
	fmt.Printf("%-22s %12d ok, %d failed\n", "requests", done.Load(), failed.Load())
	fmt.Printf("%-22s %12v p50, %v p95, %v p99\n", "latency", pct(0.50), pct(0.95), pct(0.99))
	avgBatch := 0.0
	if st.Batches > 0 {
		avgBatch = float64(st.BatchedRequests) / float64(st.Batches)
	}
	fmt.Printf("%-22s %12d batches (avg %.1f req/batch)\n", "batching", st.Batches, avgBatch)
	fmt.Printf("%-22s %12d hits / %d conversions / %d cached graphs\n",
		"graph cache", st.CacheHits, st.Conversions, st.CachedGraphs)
	fmt.Printf("%-22s %12d graph / %d imperative\n", "steps", st.GraphSteps, st.ImperativeSteps)

	hitRate := 0.0
	if st.CacheHits+st.CacheMisses > 0 {
		hitRate = float64(st.CacheHits) / float64(st.CacheHits+st.CacheMisses)
	}
	rep := serveReport{
		Mode:         "serve",
		ReqPerS:      float64(done.Load()) / dur.Seconds(),
		Requests:     done.Load(),
		Failed:       failed.Load(),
		P50Ms:        float64(pct(0.50)) / 1e6,
		P95Ms:        float64(pct(0.95)) / 1e6,
		P99Ms:        float64(pct(0.99)) / 1e6,
		CacheHitRate: hitRate,
		AvgBatch:     avgBatch,
	}
	bucketBootBench(&rep)
	writeReport(jsonPath, rep)
}

// bucketBootBench fills the phase-2 report fields: the cache hit rate of a
// shape-bucketed pool under variable batch sizes, and boot-to-first-served
// latency with and without a snapshot artifact (the cold-start numbers the
// CI gate tracks).
func bucketBootBench(rep *serveReport) {
	fail := func(step string, err error) {
		fmt.Fprintf(os.Stderr, "serve bench: %s: %v\n", step, err)
		os.Exit(1)
	}
	// Batch sizes a real mixed-traffic client would send: with MaxBucket 16
	// these land on the power-of-two buckets {1, 2, 4, 8, 16}, so five
	// compiled shapes serve eight request shapes.
	sizes := []int{1, 2, 3, 5, 7, 8, 11, 13}
	feed := func(rows int) janus.Feeds {
		data := make([][]float64, rows)
		for i := range data {
			row := make([]float64, 16)
			for j := range row {
				row[j] = float64((i+j)%11)*0.25 - 1
			}
			data[i] = row
		}
		return janus.Feeds{"x": janus.FromRows(data)}
	}
	// boot builds a bucketed server, runs the optional snapshot load, and
	// serves one request per traffic size; the returned duration is the full
	// boot-to-all-shapes-served time a restarting replica would pay.
	boot := func(load func(*janus.Server) error) (*janus.Server, *janus.Function, time.Duration) {
		start := time.Now()
		srv := janus.NewServer(janus.ServerOptions{
			PoolSize:    2,
			MaxBatch:    1,
			BucketBatch: true,
			MaxBucket:   16,
			Options:     janus.Options{Seed: 42, ProfileIterations: 1},
		})
		prog, err := srv.Compile(serveModel)
		if err != nil {
			fail("bucket compile", err)
		}
		if load != nil {
			if err := load(srv); err != nil {
				fail("snapshot load", err)
			}
		}
		predict, err := prog.Func("predict")
		if err != nil {
			fail("bucket resolve", err)
		}
		for _, rows := range sizes {
			if _, err := predict.Call(context.Background(), feed(rows)); err != nil {
				fail(fmt.Sprintf("bucket call rows=%d", rows), err)
			}
		}
		return srv, predict, time.Since(start)
	}

	// Phase 2a: steady-state hit rate under variable batch sizes. Without
	// bucketing every distinct size converts its own graph; with it the
	// traffic settles onto the bucket shapes after the first few cycles.
	warmSrv, predict, _ := boot(nil)
	for cycle := 0; cycle < 7; cycle++ {
		for _, rows := range sizes {
			if _, err := predict.Call(context.Background(), feed(rows)); err != nil {
				fail(fmt.Sprintf("bucket traffic rows=%d", rows), err)
			}
		}
	}
	bst := warmSrv.Stats()
	if bst.CacheHits+bst.CacheMisses > 0 {
		rep.CacheHitRateBucketed = float64(bst.CacheHits) / float64(bst.CacheHits+bst.CacheMisses)
	}
	rep.BucketedEntries = bst.CachedGraphs
	fmt.Printf("%-22s %12.3f hit rate (%d sizes -> %d compiled graphs)\n",
		"bucketed cache", rep.CacheHitRateBucketed, len(sizes), rep.BucketedEntries)

	// Phase 2b: snapshot round trip + boot latency. Save the warmed pool's
	// artifact, then time repeated cold boots (profile -> convert -> compile)
	// against warm boots (restore the artifact, serve immediately).
	dir, err := os.MkdirTemp("", "janusbench-snap-")
	if err != nil {
		fail("snapshot dir", err)
	}
	defer os.RemoveAll(dir)
	path := janus.SnapshotPath(dir)
	saved, err := warmSrv.SaveSnapshot(path)
	if err != nil {
		fail("snapshot save", err)
	}
	rep.SnapshotSaved = saved

	const boots = 7
	var coldTimes, warmTimes []time.Duration
	for i := 0; i < boots; i++ {
		_, _, d := boot(nil)
		coldTimes = append(coldTimes, d)
	}
	for i := 0; i < boots; i++ {
		srv, _, d := boot(func(s *janus.Server) error {
			n, err := s.LoadSnapshot(path)
			if err != nil {
				return err
			}
			rep.SnapshotLoaded = n
			return nil
		})
		warmTimes = append(warmTimes, d)
		conv := int64(srv.Stats().Conversions)
		rep.WarmConversions = &conv
	}
	bootPct := func(ts []time.Duration, p float64) float64 {
		sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
		return float64(ts[int(p*float64(len(ts)-1))]) / 1e6
	}
	rep.ColdBootP50Ms = bootPct(coldTimes, 0.50)
	rep.ColdBootP99Ms = bootPct(coldTimes, 0.99)
	rep.WarmBootP50Ms = bootPct(warmTimes, 0.50)
	rep.WarmBootP99Ms = bootPct(warmTimes, 0.99)
	fmt.Printf("%-22s %12d entries saved, %d restored, %d warm conversions\n",
		"snapshot", rep.SnapshotSaved, rep.SnapshotLoaded, *rep.WarmConversions)
	fmt.Printf("%-22s %9.1fms p50, %.1fms p99 cold / %.1fms p50, %.1fms p99 warm\n",
		"boot-to-served", rep.ColdBootP50Ms, rep.ColdBootP99Ms, rep.WarmBootP50Ms, rep.WarmBootP99Ms)
}
