package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"bgqflow/internal/scenario"
	"bgqflow/internal/serve"
)

// TestComputePairMatchesPlanner is the byte-identity differential for
// the always-installed fault predicate: across sampled pairs, sizes,
// proxy modes and fault sets (the empty one included), ComputePair's
// bytes equal a direct planner call that installs no predicate when
// nothing is failed.
func TestComputePairMatchesPlanner(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	faultSets := [][]scenario.FailLink{
		nil,
		{{Node: 0, Dim: 2, Dir: 1}},
		{{Node: 5, Dim: 3, Dir: -1}, {Node: 64, Dim: 0, Dir: 1}, {Node: 97, Dim: 4, Dir: 1}},
	}
	n := 0
	for i := 0; i < 150; i++ {
		req := serve.PairRequest{
			Shape:   testShape,
			Src:     rng.Intn(128),
			Dst:     rng.Intn(128),
			Bytes:   []int64{64 << 10, 1 << 20, 8 << 20}[i%3],
			Proxies: []int{-1, 0, 3}[(i/3)%3],
		}
		for _, faults := range faultSets {
			got, err := serve.ComputePair(req, faults)
			if err != nil {
				continue // a direct path cut by the fault set
			}
			gotB, _ := json.Marshal(got)
			wantWire, _ := directPairWire(t, req, faults)
			wantB, _ := json.Marshal(wantWire)
			if !bytes.Equal(gotB, wantB) {
				t.Fatalf("req %+v faults %v:\ngot:  %s\nwant: %s", req, faults, gotB, wantB)
			}
			n++
		}
	}
	t.Logf("%d plans byte-identical", n)
}

// TestAggCutByFaultsIs4xx: an aggregation request whose gather or write
// legs have no fault-free route gets a 400 naming the cut leg, and the
// daemon keeps serving (before the fix, the engine's fail-stop check
// panicked inside a worker and killed the process).
func TestAggCutByFaultsIs4xx(t *testing.T) {
	srv, client := newTestDaemon(t, serve.Config{Workers: 2})
	ctx := context.Background()
	var links []scenario.FailLink
	for node := 0; node < 4; node++ { // isolate nodes 0..3: every outgoing link
		for dim := 0; dim < 5; dim++ {
			links = append(links, scenario.FailLink{Node: node, Dim: dim, Dir: 1}, scenario.FailLink{Node: node, Dim: dim, Dir: -1})
		}
	}
	if _, err := client.Fault(ctx, serve.FaultEvent{Links: links}); err != nil {
		t.Fatal(err)
	}
	agg := serve.AggRequest{Shape: testShape, Workload: "dense", MaxBytes: 1 << 20, Seed: 1}
	res, err := client.PlanAgg(ctx, agg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != 400 || !strings.Contains(res.Err, " leg ") || !strings.Contains(res.Err, "cut by") {
		t.Fatalf("agg under cut faults: status %d err %q, want 400 naming the cut leg", res.Status, res.Err)
	}
	if got := srv.Registry().Counter("serve/panics").Value(); got != 0 {
		t.Fatalf("serve/panics = %d, want 0 (the planner reports the cut)", got)
	}
	// Still serving: a pair plan and, after a repair, the same agg plan.
	if res, err := client.PlanPair(ctx, serve.PairRequest{Shape: testShape, Src: 10, Dst: 97, Bytes: 1 << 20}); err != nil || !res.OK() {
		t.Fatalf("pair after agg error: %v status %d", err, res.Status)
	}
	if _, err := client.Fault(ctx, serve.FaultEvent{Clear: true}); err != nil {
		t.Fatal(err)
	}
	if res, err := client.PlanAgg(ctx, agg); err != nil || !res.OK() {
		t.Fatalf("agg after repair: %v status %d %s", err, res.Status, res.Err)
	}
}

// TestFootprintCountersInMetrics: a fault outside a cached plan's
// footprint keeps it (serve/cache_revalidated), one on a flow link drops
// it (serve/cache_footprint_misses), and /metrics reports both.
func TestFootprintCountersInMetrics(t *testing.T) {
	_, client := newTestDaemon(t, serve.Config{})
	ctx := context.Background()
	req := serve.PairRequest{Shape: testShape, Src: 0, Dst: 1, Bytes: 64 << 10} // a one-hop direct plan
	first, err := client.PlanPair(ctx, req)
	if err != nil || !first.OK() {
		t.Fatalf("warm: %v status %d", err, first.Status)
	}
	var plan serve.PairPlan
	if err := json.Unmarshal(first.Plan, &plan); err != nil {
		t.Fatal(err)
	}
	onPath, ok := linkToFail(t, testShape, plan.Flows[0].Links[0])
	if !ok {
		t.Fatal("cannot invert the plan's link")
	}
	far := scenario.FailLink{Node: 120, Dim: 3, Dir: 1}
	if _, err := client.Fault(ctx, serve.FaultEvent{Links: []scenario.FailLink{far}}); err != nil {
		t.Fatal(err)
	}
	kept, err := client.PlanPair(ctx, req)
	if err != nil || !kept.OK() || !kept.Cached || !bytes.Equal(kept.Plan, first.Plan) {
		t.Fatalf("after a far fault: %v status %d cached %v", err, kept.Status, kept.Cached)
	}
	if _, err := client.Fault(ctx, serve.FaultEvent{Links: []scenario.FailLink{onPath}}); err != nil {
		t.Fatal(err)
	}
	moved, err := client.PlanPair(ctx, req)
	if err != nil || !moved.OK() || moved.Cached || bytes.Equal(moved.Plan, first.Plan) {
		t.Fatalf("after a fault on the plan's link: %v status %d cached %v", err, moved.Status, moved.Cached)
	}
	snap, err := client.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]int64{
		"serve/cache_revalidated":      1,
		"serve/cache_footprint_misses": 1,
		"serve/plans_computed":         2,
		"serve/cache_hits":             1,
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// TestHammerFootprintServesExactPlans is the -race hammer for the
// footprint rule: readers hammer a small hot set while a poster fails
// and heals links, and every served pair plan must equal ComputePair
// under the fault set of the epoch (standalone) or vector (clustered)
// it was served under.
func TestHammerFootprintServesExactPlans(t *testing.T) {
	for _, clustered := range []bool{false, true} {
		t.Run(fmt.Sprintf("clustered=%v", clustered), func(t *testing.T) {
			cfg := serve.Config{Workers: 4, QueueDepth: 4096}
			if clustered {
				cfg.ReplicaID = "r0"
			}
			srv, client := newTestDaemon(t, cfg)
			ctx := context.Background()
			hot := []serve.PairRequest{
				{Shape: testShape, Src: 0, Dst: 97, Bytes: 4 << 20},
				{Shape: testShape, Src: 3, Dst: 64, Bytes: 8 << 20, Proxies: 3},
				{Shape: testShape, Src: 12, Dst: 13, Bytes: 64 << 10},
				{Shape: testShape, Src: 40, Dst: 7, Bytes: 1 << 20, Proxies: -1},
				{Shape: testShape, Src: 100, Dst: 27, Bytes: 2 << 20},
				{Shape: testShape, Src: 77, Dst: 78, Bytes: 8 << 20},
			}
			type answer struct {
				req  int
				tag  string
				plan []byte
			}
			tagOf := func(res serve.PlanResult) string {
				if clustered {
					return res.Vector
				}
				return fmt.Sprint(res.Epoch)
			}
			var (
				mu       sync.Mutex
				faultsAt = map[string][]scenario.FailLink{}
				answers  []answer
			)
			if clustered {
				faultsAt[""] = nil
			} else {
				faultsAt[fmt.Sprint(srv.Epoch())] = nil
			}

			stop := make(chan struct{})
			var wg sync.WaitGroup
			for g := 0; g < 6; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(g)))
					for {
						select {
						case <-stop:
							return
						default:
						}
						i := rng.Intn(len(hot))
						res, err := client.PlanPair(ctx, hot[i])
						if err != nil {
							t.Error(err)
							return
						}
						if res.Status == 400 {
							continue // a direct path cut by the current faults
						}
						if !res.OK() {
							t.Errorf("status %d: %s", res.Status, res.Err)
							return
						}
						mu.Lock()
						answers = append(answers, answer{i, tagOf(res), res.Plan})
						mu.Unlock()
					}
				}(g)
			}

			var onPath []scenario.FailLink
			for _, req := range hot {
				plan, err := serve.ComputePair(req, nil)
				if err != nil {
					t.Fatal(err)
				}
				for _, f := range plan.Flows {
					for _, l := range f.Links {
						fl, _ := linkToFail(t, testShape, l)
						onPath = append(onPath, fl)
					}
				}
			}
			rng := rand.New(rand.NewSource(99))
			var cur []scenario.FailLink
			for ev := 0; ev < 24; ev++ {
				var fe serve.FaultEvent
				if ev%4 == 3 {
					fe.Clear = true
					cur = nil
				} else {
					// Half the faults land on a link a hot plan rides, so
					// both survivals and footprint misses occur.
					fl := scenario.FailLink{Node: rng.Intn(128), Dim: rng.Intn(5), Dir: 1 - 2*rng.Intn(2)}
					if ev%2 == 0 {
						fl = onPath[rng.Intn(len(onPath))]
					}
					fe.Links = []scenario.FailLink{fl}
					cur = append(append([]scenario.FailLink(nil), cur...), fl)
				}
				epoch, err := client.Fault(ctx, fe)
				if err != nil {
					t.Fatal(err)
				}
				tag := fmt.Sprint(epoch)
				if clustered {
					tag = client.MinVector()
				}
				mu.Lock()
				faultsAt[tag] = cur
				mu.Unlock()
				// Let the readers take hits at this fault set.
				for k := 0; k < 20; k++ {
					client.PlanPair(ctx, hot[k%len(hot)])
				}
			}
			close(stop)
			wg.Wait()

			type memoKey struct {
				req int
				tag string
			}
			memo := map[memoKey][]byte{}
			for _, a := range answers {
				want, ok := memo[memoKey{a.req, a.tag}]
				if !ok {
					faults, known := faultsAt[a.tag]
					if !known {
						t.Fatalf("answer served under unknown %q", a.tag)
					}
					plan, err := serve.ComputePair(hot[a.req], faults)
					if err != nil {
						t.Fatalf("req %d at %q: served a plan the planner rejects: %v", a.req, a.tag, err)
					}
					want, _ = json.Marshal(plan)
					memo[memoKey{a.req, a.tag}] = want
				}
				if !bytes.Equal(a.plan, want) {
					t.Fatalf("req %d at %q: served plan differs from ComputePair\nserved: %s\nwant:   %s", a.req, a.tag, a.plan, want)
				}
			}
			reval := srv.Registry().Counter("serve/cache_revalidated").Value()
			misses := srv.Registry().Counter("serve/cache_footprint_misses").Value()
			if reval == 0 || misses == 0 {
				t.Fatalf("revalidated %d, footprint misses %d: the hammer did not exercise both sides of the footprint rule", reval, misses)
			}
			t.Logf("%d answers checked; revalidated %d, footprint misses %d", len(answers), reval, misses)
		})
	}
}

// TestGroupPlanPanicContained: the group planner routes without a fault
// predicate, so a fault on one of its links makes netsim's fail-stop
// Submit panic inside a worker. The daemon answers 500, counts the
// panic, and keeps serving.
func TestGroupPlanPanicContained(t *testing.T) {
	srv, client := newTestDaemon(t, serve.Config{Workers: 1})
	ctx := context.Background()
	req := serve.GroupRequest{
		Shape:     testShape,
		SrcOrigin: []int{0, 0, 0, 0, 0}, SrcExtent: []int{1, 1, 2, 2, 1},
		DstOrigin: []int{1, 1, 2, 2, 1}, DstExtent: []int{1, 1, 2, 2, 1},
		Bytes: 4 << 20,
	}
	res, err := client.PlanGroup(ctx, req)
	if err != nil || !res.OK() {
		t.Fatalf("healthy group plan: %v status %d", err, res.Status)
	}
	var plan serve.GroupPlan
	if err := json.Unmarshal(res.Plan, &plan); err != nil {
		t.Fatal(err)
	}
	fl, ok := linkToFail(t, testShape, plan.FlowSpecs[0].Links[0])
	if !ok {
		t.Fatal("cannot invert the plan's link")
	}
	if _, err := client.Fault(ctx, serve.FaultEvent{Links: []scenario.FailLink{fl}}); err != nil {
		t.Fatal(err)
	}
	res, err = client.PlanGroup(ctx, req)
	if err != nil || res.Status != 500 {
		t.Fatalf("group plan over a failed link: %v status %d, want 500", err, res.Status)
	}
	if got := srv.Registry().Counter("serve/panics").Value(); got != 1 {
		t.Fatalf("serve/panics = %d, want 1", got)
	}
	if res, err := client.PlanPair(ctx, serve.PairRequest{Shape: testShape, Src: 10, Dst: 97, Bytes: 1 << 20}); err != nil || !res.OK() {
		t.Fatalf("pair plan after a contained panic: %v status %d", err, res.Status)
	}
}
