package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"bgqflow/internal/check"
	"bgqflow/internal/core"
	"bgqflow/internal/netsim"
	"bgqflow/internal/scenario"
	"bgqflow/internal/serve"
	"bgqflow/internal/torus"
)

const testShape = "2x2x4x4x2" // the paper's 128-node midplane slice

// newTestDaemon runs an in-process daemon and returns a client for it.
func newTestDaemon(t testing.TB, cfg serve.Config) (*serve.Server, *serve.Client) {
	t.Helper()
	srv := serve.New(cfg)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { hs.Close(); srv.Close() })
	client, err := serve.NewClient(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	return srv, client
}

// directPairWire replicates the daemon's pair planning with a direct,
// single-threaded core planner call — the differential oracle for
// byte-identity.
func directPairWire(t *testing.T, req serve.PairRequest, faults []scenario.FailLink) (serve.PairPlan, core.PairPlan) {
	t.Helper()
	shape, err := torus.ParseShape(req.Shape)
	if err != nil {
		t.Fatal(err)
	}
	tor, err := torus.New(shape)
	if err != nil {
		t.Fatal(err)
	}
	params := netsim.DefaultParams()
	net := netsim.NewNetwork(tor, params.LinkBandwidth)
	for _, fl := range faults {
		dir := torus.Plus
		if fl.Dir == -1 {
			dir = torus.Minus
		}
		net.FailLink(tor.LinkID(torus.NodeID(fl.Node), fl.Dim, dir))
	}
	e, err := netsim.NewEngine(net, params)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultProxyConfig()
	switch {
	case req.Proxies < 0:
		cfg.Threshold = 1 << 62
	case req.Proxies > 0:
		cfg.MaxProxies = req.Proxies
		cfg.MinProxies = 1
		cfg.Threshold = 0
	}
	pl, err := core.NewPairPlanner(tor, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if net.HasFailures() {
		pl.SetFaults(net.FailedFunc())
	}
	plan, err := pl.PlanPair(e, torus.NodeID(req.Src), torus.NodeID(req.Dst), req.Bytes)
	if err != nil {
		t.Fatal(err)
	}
	mk, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return serve.PairWireFromPlan(e, plan, float64(mk)), plan
}

// TestE2EPairByteIdentical pins the tentpole determinism claim: the plan
// a concurrent daemon serves is byte-identical to a direct
// single-threaded planner call, across direct, default, and
// forced-proxy modes — and again when served from the cache.
func TestE2EPairByteIdentical(t *testing.T) {
	_, client := newTestDaemon(t, serve.Config{})
	ctx := context.Background()
	for _, req := range []serve.PairRequest{
		{Shape: testShape, Src: 0, Dst: 97, Bytes: 4 << 20, Proxies: 0},
		{Shape: testShape, Src: 0, Dst: 97, Bytes: 4 << 20, Proxies: -1},
		{Shape: testShape, Src: 3, Dst: 64, Bytes: 8 << 20, Proxies: 3},
	} {
		res, err := client.PlanPair(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if !res.OK() {
			t.Fatalf("proxies=%d: status %d: %s", req.Proxies, res.Status, res.Err)
		}
		wantWire, corePlan := directPairWire(t, req, nil)
		want, err := json.Marshal(wantWire)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(res.Plan, want) {
			t.Errorf("proxies=%d: served plan differs from direct planner call\nserved: %s\ndirect: %s",
				req.Proxies, res.Plan, want)
		}
		// Oracle: forced multi-proxy plans must use link-disjoint legs.
		if len(corePlan.Proxies) > 1 {
			if viols := check.CheckProxyDisjoint(corePlan.Proxies); len(viols) > 0 {
				t.Errorf("proxies=%d: %v", req.Proxies, viols)
			}
		}
		// The cached copy must be the same bytes.
		res2, err := client.PlanPair(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if !res2.Cached {
			t.Errorf("proxies=%d: second identical request not served from cache", req.Proxies)
		}
		if !bytes.Equal(res2.Plan, res.Plan) {
			t.Errorf("proxies=%d: cached plan differs from computed plan", req.Proxies)
		}
	}
}

func TestE2EGroupByteIdentical(t *testing.T) {
	_, client := newTestDaemon(t, serve.Config{})
	req := serve.GroupRequest{
		Shape:     testShape,
		SrcOrigin: []int{0, 0, 0, 0, 0}, SrcExtent: []int{2, 2, 2, 1, 1},
		DstOrigin: []int{0, 0, 2, 2, 1}, DstExtent: []int{2, 2, 2, 1, 1},
		Bytes: 2 << 20,
	}
	res, err := client.PlanGroup(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("status %d: %s", res.Status, res.Err)
	}
	direct, err := serve.ComputeGroup(req, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(direct)
	if !bytes.Equal(res.Plan, want) {
		t.Errorf("served group plan differs from direct computation\nserved: %s\ndirect: %s", res.Plan, want)
	}
	var gp serve.GroupPlan
	if err := json.Unmarshal(res.Plan, &gp); err != nil {
		t.Fatal(err)
	}
	if gp.PairCount == 0 || gp.Flows == 0 || gp.GBps <= 0 {
		t.Errorf("degenerate group plan: %+v", gp)
	}
}

func TestE2EAggByteIdenticalAndInterleaved(t *testing.T) {
	_, client := newTestDaemon(t, serve.Config{})
	req := serve.AggRequest{Shape: testShape, Workload: "pattern2", Seed: 7}
	res, err := client.PlanAgg(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("status %d: %s", res.Status, res.Err)
	}
	direct, err := serve.ComputeAgg(req, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(direct)
	if !bytes.Equal(res.Plan, want) {
		t.Errorf("served agg plan differs from direct computation\nserved: %s\ndirect: %s", res.Plan, want)
	}
	var ap serve.AggPlan
	if err := json.Unmarshal(res.Plan, &ap); err != nil {
		t.Fatal(err)
	}
	if ap.TotalBytes <= 0 || ap.NumAggregators <= 0 || ap.GBps <= 0 {
		t.Fatalf("degenerate agg plan: %+v", ap)
	}
	// Oracle: the served aggregator list must satisfy the interleave
	// invariant (PR 4's CheckAggInterleave) — psets cycle, bridges
	// alternate.
	aggs := make([]core.Aggregator, len(ap.Aggregators))
	for i, w := range ap.Aggregators {
		aggs[i] = core.Aggregator{Node: torus.NodeID(w.Node), Pset: w.Pset, Bridge: w.Bridge}
	}
	numPsets := 1 // 128-node shape: one 128-node pset
	if viols := check.CheckAggInterleave(aggs, numPsets, 2); len(viols) > 0 {
		t.Errorf("served aggregators violate interleave: %v", viols)
	}
}

func TestE2ESimulateMatchesScenarioRun(t *testing.T) {
	_, client := newTestDaemon(t, serve.Config{})
	cfg := scenario.Config{
		Shape:    testShape,
		Transfer: &scenario.TransferConfig{Kind: "pair", Src: 0, Dst: 97, Bytes: 4 << 20},
	}
	res, err := client.Simulate(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("status %d: %s", res.Status, res.Err)
	}
	var sr serve.SimResult
	if err := json.Unmarshal(res.Plan, &sr); err != nil {
		t.Fatal(err)
	}
	direct, err := scenario.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sr.GBps != direct.GBps || sr.MakespanMS != direct.MakespanMS || sr.Mode != direct.Mode {
		t.Errorf("served %+v != direct scenario.Run {gbps %v makespan %v mode %q}",
			sr, direct.GBps, direct.MakespanMS, direct.Mode)
	}
}

// TestE2EFaultInvalidation fails a link that the unfaulted plan uses and
// asserts the daemon's next answer routes around it under a new epoch.
func TestE2EFaultInvalidation(t *testing.T) {
	srv, client := newTestDaemon(t, serve.Config{})
	ctx := context.Background()
	req := serve.PairRequest{Shape: testShape, Src: 0, Dst: 97, Bytes: 4 << 20}

	res, err := client.PlanPair(ctx, req)
	if err != nil || !res.OK() {
		t.Fatalf("pre-fault plan: %v status %d", err, res.Status)
	}
	var pre serve.PairPlan
	if err := json.Unmarshal(res.Plan, &pre); err != nil {
		t.Fatal(err)
	}
	if len(pre.Flows) == 0 || len(pre.Flows[0].Links) == 0 {
		t.Fatalf("pre-fault plan has no routed flows: %+v", pre)
	}
	target := pre.Flows[0].Links[0]
	fl, ok := linkToFail(t, testShape, target)
	if !ok {
		t.Fatalf("cannot invert link id %d", target)
	}

	epoch, err := client.Fault(ctx, serve.FaultEvent{Links: []scenario.FailLink{fl}})
	if err != nil {
		t.Fatal(err)
	}
	if epoch != srv.Epoch() || epoch == res.Epoch {
		t.Fatalf("fault epoch %d (server %d, pre-fault %d)", epoch, srv.Epoch(), res.Epoch)
	}

	res2, err := client.PlanPair(ctx, req)
	if err != nil || !res2.OK() {
		t.Fatalf("post-fault plan: %v status %d", err, res2.Status)
	}
	if res2.Cached || res2.Coalesced {
		t.Fatal("post-fault plan served from pre-fault cache")
	}
	if res2.Epoch != epoch {
		t.Fatalf("post-fault plan epoch %d, want %d", res2.Epoch, epoch)
	}
	var post serve.PairPlan
	if err := json.Unmarshal(res2.Plan, &post); err != nil {
		t.Fatal(err)
	}
	for _, f := range post.Flows {
		for _, l := range f.Links {
			if l == target {
				t.Fatalf("post-fault plan still uses failed link %d: %+v", target, post)
			}
		}
	}
	// Differential: the daemon's fault-aware plan equals a direct planner
	// call with the same fault set.
	wantWire, _ := directPairWire(t, req, []scenario.FailLink{fl})
	want, _ := json.Marshal(wantWire)
	if !bytes.Equal(res2.Plan, want) {
		t.Errorf("post-fault served plan differs from direct faulted planner call\nserved: %s\ndirect: %s", res2.Plan, want)
	}

	// Clear the fault: epoch bumps again, the original plan comes back.
	epoch2, err := client.Fault(ctx, serve.FaultEvent{Clear: true})
	if err != nil || epoch2 != epoch+1 {
		t.Fatalf("clear: %v epoch %d want %d", err, epoch2, epoch+1)
	}
	res3, err := client.PlanPair(ctx, req)
	if err != nil || !res3.OK() {
		t.Fatalf("post-clear plan: %v status %d", err, res3.Status)
	}
	if !bytes.Equal(res3.Plan, res.Plan) {
		t.Error("post-clear plan differs from the original unfaulted plan")
	}
}

// linkToFail inverts a netsim link ID into the (node, dim, dir) triple
// the fault API speaks, by scanning the torus.
func linkToFail(t *testing.T, shapeStr string, linkID int) (scenario.FailLink, bool) {
	t.Helper()
	shape, err := torus.ParseShape(shapeStr)
	if err != nil {
		t.Fatal(err)
	}
	tor, err := torus.New(shape)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < tor.Size(); n++ {
		for d := 0; d < tor.Dims(); d++ {
			if tor.LinkID(torus.NodeID(n), d, torus.Plus) == linkID {
				return scenario.FailLink{Node: n, Dim: d, Dir: 1}, true
			}
			if tor.LinkID(torus.NodeID(n), d, torus.Minus) == linkID {
				return scenario.FailLink{Node: n, Dim: d, Dir: -1}, true
			}
		}
	}
	return scenario.FailLink{}, false
}

func TestE2EBadRequests(t *testing.T) {
	srv := serve.New(serve.Config{})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { hs.Close(); srv.Close() })

	post := func(path, body string) *http.Response {
		resp, err := http.Post(hs.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	cases := []struct {
		name, path, body string
		want             int
	}{
		{"bad shape", "/v1/plan/pair", `{"shape":"bogus","src":0,"dst":1,"bytes":1024}`, 400},
		{"src out of range", "/v1/plan/pair", `{"shape":"2x2x4x4x2","src":1000,"dst":1,"bytes":1024}`, 400},
		{"zero bytes", "/v1/plan/pair", `{"shape":"2x2x4x4x2","src":0,"dst":1,"bytes":0}`, 400},
		{"unknown field", "/v1/plan/pair", `{"shape":"2x2x4x4x2","src":0,"dst":1,"bytes":1,"nope":1}`, 400},
		{"malformed json", "/v1/plan/group", `{`, 400},
		{"bad workload", "/v1/plan/agg", `{"shape":"2x2x4x4x2","workload":"nope"}`, 400},
		{"bad box", "/v1/plan/group", `{"shape":"2x2x4x4x2","srcOrigin":[0],"srcExtent":[99],"dstOrigin":[0],"dstExtent":[1],"bytes":1}`, 400},
		{"bad fault dir", "/v1/fault", `{"links":[{"node":0,"dim":0,"dir":7}]}`, 400},
	}
	for _, c := range cases {
		if resp := post(c.path, c.body); resp.StatusCode != c.want {
			t.Errorf("%s: status %d, want %d", c.name, resp.StatusCode, c.want)
		}
	}
	// Method mismatch: Go 1.22 mux pattern gives 405.
	resp, err := http.Get(hs.URL + "/v1/plan/pair")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET plan: status %d, want 405", resp.StatusCode)
	}
	// Errors must be 4xx, never 5xx — the soak's zero-5xx gate depends on
	// it — and each one must land in the error counter.
	if got := srv.Registry().Counter("serve/errors").Value(); got != int64(len(cases)) {
		t.Errorf("serve/errors = %d, want %d", got, len(cases))
	}
}

func TestE2EMetricsAndHealth(t *testing.T) {
	_, client := newTestDaemon(t, serve.Config{})
	ctx := context.Background()
	if err := client.Health(ctx); err != nil {
		t.Fatal(err)
	}
	req := serve.PairRequest{Shape: testShape, Src: 0, Dst: 5, Bytes: 1 << 20}
	for i := 0; i < 3; i++ {
		if res, err := client.PlanPair(ctx, req); err != nil || !res.OK() {
			t.Fatalf("req %d: %v status %d", i, err, res.Status)
		}
	}
	snap, err := client.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := snap.Counters["serve/requests"]; got != 3 {
		t.Errorf("serve/requests = %d, want 3", got)
	}
	if got := snap.Counters["serve/plans_computed"]; got != 1 {
		t.Errorf("serve/plans_computed = %d, want 1", got)
	}
	if got := snap.Counters["serve/cache_hits"]; got != 2 {
		t.Errorf("serve/cache_hits = %d, want 2", got)
	}
	if _, ok := snap.Histograms["serve/latency_ms/pair"]; !ok {
		t.Error("missing pair latency histogram")
	}
	if _, ok := snap.Gauges["serve/uptime_seconds"]; !ok {
		t.Error("missing uptime gauge")
	}
}

// TestE2EUnixSocket exercises the unix:// client path end to end.
func TestE2EUnixSocket(t *testing.T) {
	srv := serve.New(serve.Config{})
	defer srv.Close()
	sock := t.TempDir() + "/bgqd.sock"
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	defer hs.Close()

	client, err := serve.NewClient("unix://" + sock)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Health(context.Background()); err != nil {
		t.Fatal(err)
	}
	res, err := client.PlanPair(context.Background(), serve.PairRequest{Shape: testShape, Src: 0, Dst: 1, Bytes: 1 << 20})
	if err != nil || !res.OK() {
		t.Fatalf("plan over unix socket: %v status %d", err, res.Status)
	}
}
