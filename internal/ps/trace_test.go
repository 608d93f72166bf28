package ps

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/tensor"
	"repro/internal/vars"
)

// treeOf indexes a trace snapshot for parent assertions.
func treeOf(snap obs.TraceSnapshot) (byID map[obs.SpanID]obs.SpanSnapshot, byName map[string][]obs.SpanSnapshot) {
	byID = make(map[obs.SpanID]obs.SpanSnapshot, len(snap.Spans))
	byName = make(map[string][]obs.SpanSnapshot)
	for _, sp := range snap.Spans {
		byID[sp.ID] = sp
		byName[sp.Name] = append(byName[sp.Name], sp)
	}
	return byID, byName
}

// TestClientTraceRoundTrip drives a traced pull and push through the HTTP
// transport against a live janusps handler: the client's RPC spans must
// carry the Janus-Trace header across the process boundary and graft the
// server's handling spans (including the nested optimizer apply) back
// under themselves — one merged tree in the originating trace.
func TestClientTraceRoundTrip(t *testing.T) {
	s := mustServer(t, Config{Shards: 1, LR: 0.1})
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()
	c := NewClient(ts.URL, ts.Client())

	w0 := tensor.FromSlice([]float64{1, 2, 3})
	if err := c.InitVars(context.Background(), map[string]*tensor.Tensor{"w": w0}); err != nil {
		t.Fatalf("init: %v", err)
	}

	tr := obs.NewTrace("req-rt")
	root := tr.StartSpan("request")
	ctx := obs.ContextWithSpan(obs.ContextWithTrace(context.Background(), tr), root.ID())

	if _, _, _, err := c.Pull(ctx, 0, -1); err != nil {
		t.Fatalf("pull: %v", err)
	}
	g := tensor.FromSlice([]float64{0.1, 0.1, 0.1})
	if _, err := c.PushGrad(ctx, 0, -1, 1, map[string]*tensor.Tensor{"w": g}); err != nil {
		t.Fatalf("push: %v", err)
	}
	root.End()
	tr.Finish()

	_, byName := treeOf(tr.Snapshot())
	for _, chain := range [][2]string{
		{"rpc.pull", "ps.pull"},
		{"rpc.push", "ps.push"},
	} {
		rpcs := byName[chain[0]]
		if len(rpcs) != 1 {
			t.Fatalf("%s spans = %d, want 1", chain[0], len(rpcs))
		}
		if rpcs[0].Parent != root.ID() {
			t.Errorf("%s parent = %d, want request span %d", chain[0], rpcs[0].Parent, root.ID())
		}
		remotes := byName[chain[1]]
		if len(remotes) != 1 {
			t.Fatalf("%s spans = %d, want 1 (grafted from the server)", chain[1], len(remotes))
		}
		if remotes[0].Parent != rpcs[0].ID {
			t.Errorf("%s parent = %d, want its RPC span %d", chain[1], remotes[0].Parent, rpcs[0].ID)
		}
	}
	// The optimizer apply nests under the server's push span, two process
	// hops down from the request root.
	applies := byName["opt_apply"]
	if len(applies) != 1 || applies[0].Parent != byName["ps.push"][0].ID {
		t.Fatalf("opt_apply spans = %+v, want one under ps.push", applies)
	}
	// The grafted remote spans sit inside their RPC span's window.
	rpc, remote := byName["rpc.push"][0], byName["ps.push"][0]
	if remote.StartUS < rpc.StartUS {
		t.Errorf("remote span anchored before its RPC: %v < %v", remote.StartUS, rpc.StartUS)
	}
}

// TestTraceDegradationNeverFailsRequests pins the failure-isolation
// contract: untraced clients, absent headers and malformed headers all
// serve normally — tracing is strictly additive.
func TestTraceDegradationNeverFailsRequests(t *testing.T) {
	s := mustServer(t, Config{Shards: 1, LR: 0.1})
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()
	c := NewClient(ts.URL, ts.Client())
	if err := c.InitVars(context.Background(), map[string]*tensor.Tensor{"w": tensor.FromSlice([]float64{1})}); err != nil {
		t.Fatalf("init: %v", err)
	}

	// Untraced context: no header, no graft, plain success.
	if _, _, _, err := c.Pull(context.Background(), 0, -1); err != nil {
		t.Fatalf("untraced pull: %v", err)
	}

	// Direct requests: no header, then a malformed header (empty trace
	// ID). Both must serve; neither may return a trace payload.
	for _, header := range []string{"", ";5"} {
		body := bytes.NewReader([]byte(`{"shard": 0, "have": -1}`))
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/ps/v1/pull", body)
		if err != nil {
			t.Fatal(err)
		}
		if header != "" {
			req.Header.Set(obs.TraceHeader, header)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatalf("header %q: %v", header, err)
		}
		var env map[string]json.RawMessage
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatalf("header %q: decode: %v", header, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("header %q -> %d", header, resp.StatusCode)
		}
		if _, ok := env["trace"]; ok {
			t.Errorf("header %q: unexpected trace payload in response", header)
		}
	}

	// A traced request against a server that returns no spans (nothing
	// recorded) grafts nothing and still succeeds; and a server response
	// carrying orphaned spans merges them without failing (obs.Graft
	// promotes orphans — exercised here through a real round trip).
	tr := obs.NewTrace("req-deg")
	ctx := obs.ContextWithTrace(context.Background(), tr)
	if _, err := c.NumShards(); err != nil { // untraced endpoint, traced ctx elsewhere
		t.Fatalf("shards: %v", err)
	}
	if _, _, _, err := c.Pull(ctx, 0, -1); err != nil {
		t.Fatalf("traced pull: %v", err)
	}
	tr.Finish()
	_, byName := treeOf(tr.Snapshot())
	if len(byName["rpc.pull"]) != 1 {
		t.Fatalf("traced pull recorded %d rpc spans", len(byName["rpc.pull"]))
	}
}

// TestWorkerStepMergedTrace is the full-stack check: one traced worker
// step against a live janusps over HTTP yields a single merged tree —
// worker_step at the root, every shard pull and shard gradient push
// beneath it, and inside each push the server's handling and optimizer
// apply. Run under -race in CI: pushes land on background goroutines
// while pulls for the next phase record concurrently.
func TestWorkerStepMergedTrace(t *testing.T) {
	server := mustServer(t, Config{Shards: 2, LR: 0.05, Workers: 1, Staleness: 8})
	ts := httptest.NewServer(NewHandler(server))
	defer ts.Close()
	client := NewClient(ts.URL, ts.Client())

	e := core.NewEngine(workerEngineConfig())
	step, err := mlpBuild(42, 8)(0, e)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	w, err := NewWorker(0, e, step, client)
	if err != nil {
		t.Fatalf("worker: %v", err)
	}
	if err := w.Bootstrap(0); err != nil {
		t.Fatalf("bootstrap: %v", err)
	}

	tr := obs.NewTrace("train-step")
	ctx := obs.ContextWithTrace(context.Background(), tr)
	if _, _, err := w.DoCtx(ctx, func() (float64, error) { return step(0) }); err != nil {
		t.Fatalf("step: %v", err)
	}
	tr.Finish()

	byID, byName := treeOf(tr.Snapshot())
	steps := byName["worker_step"]
	if len(steps) != 1 || steps[0].Parent != 0 {
		t.Fatalf("worker_step spans = %+v, want one root", steps)
	}
	root := steps[0]
	if got := len(byName["rpc.pull"]); got != 2 {
		t.Fatalf("rpc.pull spans = %d, want one per shard", got)
	}
	for _, sp := range byName["rpc.pull"] {
		if sp.Parent != root.ID {
			t.Errorf("rpc.pull parent = %d, want worker_step %d", sp.Parent, root.ID)
		}
	}
	// The MLP has 3 parameters (w1, b1, w2): the worker pushes each shard
	// holding any of them exactly once.
	shards := map[int]bool{}
	for _, name := range []string{"mlp/w1", "mlp/b1", "mlp/w2"} {
		shards[vars.ShardOf(name, 2)] = true
	}
	want := len(shards)
	if got := len(byName["rpc.push"]); got != want {
		t.Fatalf("rpc.push spans = %d, want one per shard (%d)", got, want)
	}
	pushIDs := make(map[obs.SpanID]bool)
	for _, sp := range byName["rpc.push"] {
		if sp.Parent != root.ID {
			t.Errorf("rpc.push parent = %d, want worker_step %d", sp.Parent, root.ID)
		}
		pushIDs[sp.ID] = true
	}
	// Every push carried the server's handling back: ps.push under the
	// RPC span, opt_apply under ps.push.
	if got := len(byName["ps.push"]); got != want {
		t.Fatalf("ps.push spans = %d, want %d grafted", got, want)
	}
	psPushIDs := make(map[obs.SpanID]bool)
	for _, sp := range byName["ps.push"] {
		if !pushIDs[sp.Parent] {
			t.Errorf("ps.push parent %d is not an rpc.push span", sp.Parent)
		}
		psPushIDs[sp.ID] = true
	}
	if got := len(byName["opt_apply"]); got != want {
		t.Fatalf("opt_apply spans = %d, want %d", got, want)
	}
	for _, sp := range byName["opt_apply"] {
		if !psPushIDs[sp.Parent] {
			t.Errorf("opt_apply parent %d is not a ps.push span", sp.Parent)
		}
	}
	// Nothing else: the root, a client and a server span per pull, and the
	// three spans of each shard push.
	if got, all := len(byID), 1+2*2+3*want; got != all {
		t.Fatalf("merged tree holds %d spans, want %d", got, all)
	}
}
