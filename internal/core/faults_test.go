package core

import (
	"strings"
	"testing"

	"bgqflow/internal/netsim"
	"bgqflow/internal/routing"
	"bgqflow/internal/torus"
	"bgqflow/internal/workload"
)

// Failure injection: the planner must route transfers around failed
// links, both for the direct fallback and for proxy legs.

func TestDirectPlanAvoidsFailedLink(t *testing.T) {
	tor := mira128()
	p := netsim.DefaultParams()
	net := netsim.NewNetwork(tor, p.LinkBandwidth)
	src, dst := torus.NodeID(0), torus.NodeID(tor.Size()-1)
	def := routing.DeterministicRoute(tor, src, dst)
	net.FailLink(def.Links[1])

	e, err := netsim.NewEngine(net, p)
	if err != nil {
		t.Fatal(err)
	}
	pl, _ := NewPairPlanner(tor, DefaultProxyConfig())
	pl.SetFaults(net.FailedFunc())
	plan, err := pl.PlanPair(e, src, dst, 64<<10) // below threshold: direct
	if err != nil {
		t.Fatal(err)
	}
	if plan.Mode != Direct {
		t.Fatalf("mode %v", plan.Mode)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !e.Result(plan.Final[0]).Done {
		t.Fatal("direct transfer did not complete around the failure")
	}
}

func TestUnawarePlannerTripsOnFailedLink(t *testing.T) {
	tor := mira128()
	p := netsim.DefaultParams()
	net := netsim.NewNetwork(tor, p.LinkBandwidth)
	src, dst := torus.NodeID(0), torus.NodeID(tor.Size()-1)
	def := routing.DeterministicRoute(tor, src, dst)
	net.FailLink(def.Links[1])
	e, err := netsim.NewEngine(net, p)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("submitting over a failed link did not panic")
		}
	}()
	e.Submit(netsim.FlowSpec{Src: src, Dst: dst, Bytes: 1 << 20})
}

func TestProxySelectionAvoidsFailedLegs(t *testing.T) {
	tor := mira128()
	p := netsim.DefaultParams()
	net := netsim.NewNetwork(tor, p.LinkBandwidth)
	src, dst := torus.NodeID(0), torus.NodeID(tor.Size()-1)

	pl, _ := NewPairPlanner(tor, DefaultProxyConfig())
	healthy := pl.SelectProxies(src, dst)
	if len(healthy) < 4 {
		t.Fatalf("healthy selection found %d", len(healthy))
	}
	// Fail the first hop of the first proxy's leg1.
	net.FailLink(healthy[0].Leg1.Links[0])
	pl.SetFaults(net.FailedFunc())
	after := pl.SelectProxies(src, dst)
	for _, pr := range after {
		for _, leg := range [][]int{pr.Leg1.Links, pr.Leg2.Links} {
			for _, l := range leg {
				if net.LinkFailed(l) {
					t.Fatal("selected proxy leg crosses a failed link")
				}
			}
		}
	}
	if len(after) == 0 {
		t.Fatal("no proxies found despite a single failure")
	}
}

func TestProxiedTransferSurvivesFailures(t *testing.T) {
	tor := mira128()
	p := netsim.DefaultParams()
	net := netsim.NewNetwork(tor, p.LinkBandwidth)
	src, dst := torus.NodeID(0), torus.NodeID(tor.Size()-1)

	// Fail three arbitrary links near the source.
	net.FailLink(tor.LinkID(src, 2, torus.Plus))
	net.FailLink(tor.LinkID(src, 3, torus.Minus))
	net.FailLink(tor.LinkID(tor.Neighbor(src, 1, torus.Plus), 2, torus.Minus))

	cfg := DefaultProxyConfig()
	pl, _ := NewPairPlanner(tor, cfg)
	pl.SetFaults(net.FailedFunc())
	e, err := netsim.NewEngine(net, p)
	if err != nil {
		t.Fatal(err)
	}
	const bytes = 32 << 20
	plan, err := pl.PlanPair(e, src, dst, bytes)
	if err != nil {
		t.Fatal(err)
	}
	mk, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	th := netsim.Throughput(bytes, mk)
	if plan.Mode == Proxied && th < 1.6e9 {
		t.Fatalf("degraded throughput %.3g with failures and %d proxies", th, len(plan.Proxies))
	}
	var arrived int64
	for _, id := range plan.Final {
		arrived += e.Result(id).Bytes
	}
	if arrived != bytes {
		t.Fatalf("arrived %d of %d", arrived, bytes)
	}
}

// TestNoRouteTraversesFailedNode is the node-failure property test: after
// FailNode, no fault-avoiding route — direct fallback or proxy leg — may
// touch the dead node or any failed link, across a spread of endpoint
// pairs. (Default routes are failure-blind by design; the submit layer
// fail-stops them, which TestUnawarePlannerTripsOnFailedLink pins.)
func TestNoRouteTraversesFailedNode(t *testing.T) {
	tor := mira128()
	p := netsim.DefaultParams()
	net := netsim.NewNetwork(tor, p.LinkBandwidth)
	dead := torus.NodeID(37)
	net.FailNode(dead)

	nodeOnRoute := func(links []int) bool {
		for _, l := range links {
			from, _, _ := tor.LinkFrom(l)
			if from == dead {
				return true
			}
			if net.LinkFailed(l) {
				return true
			}
		}
		return false
	}

	pl, _ := NewPairPlanner(tor, DefaultProxyConfig())
	pl.SetFaults(net.FailedFunc())
	for _, src := range []torus.NodeID{0, 3, 50, 101} {
		for _, dst := range []torus.NodeID{1, 64, 90, torus.NodeID(tor.Size() - 1)} {
			if src == dst || src == dead || dst == dead {
				continue
			}
			r, err := routing.RouteAvoiding(tor, src, dst, net.FailedFunc())
			if err != nil {
				// A minimal dimension-ordered detour may not exist for
				// every pair; that is the planner's cue to go proxied.
				continue
			}
			if nodeOnRoute(r.Links) {
				t.Fatalf("avoiding route %d->%d traverses the failed node", src, dst)
			}
			for _, pr := range pl.SelectProxies(src, dst) {
				if pr.Proxy == dead {
					t.Fatalf("selection %d->%d picked the failed node as proxy", src, dst)
				}
				if nodeOnRoute(pr.Leg1.Links) || nodeOnRoute(pr.Leg2.Links) {
					t.Fatalf("proxy leg %d->%d traverses the failed node", src, dst)
				}
			}
		}
	}
}

func TestDirectPlanErrorsWhenCut(t *testing.T) {
	// 1-D ring: fail both directions out of the source; no route exists.
	tor := torus.MustNew(torus.Shape{8})
	p := netsim.DefaultParams()
	net := netsim.NewNetwork(tor, p.LinkBandwidth)
	net.FailLink(tor.LinkID(0, 0, torus.Plus))
	net.FailLink(tor.LinkID(0, 0, torus.Minus))
	pl, _ := NewPairPlanner(tor, DefaultProxyConfig())
	pl.SetFaults(net.FailedFunc())
	e, _ := netsim.NewEngine(net, p)
	if _, err := pl.PlanPair(e, 0, 1, 1<<10); err == nil {
		t.Fatal("cut topology accepted")
	}
}

// isolate fails every outgoing torus link of a node.
func isolate(tor *torus.Torus, net *netsim.Network, n torus.NodeID) {
	for dim := 0; dim < tor.Dims(); dim++ {
		net.FailLink(tor.LinkID(n, dim, torus.Plus))
		net.FailLink(tor.LinkID(n, dim, torus.Minus))
	}
}

// TestAggPlanReportsCutLegs pins the fail-stop contract of Algorithm 2
// under link faults: when no fault-free route is left for a gather leg
// (sender -> aggregator) or a write leg (aggregator -> bridge), Plan
// returns an error naming the leg instead of submitting a flow over a
// failed link, which the engine would panic on.
func TestAggPlanReportsCutLegs(t *testing.T) {
	for _, tc := range []struct {
		name string
		pick func(aggs map[torus.NodeID]bool, bridges map[torus.NodeID]bool, n torus.NodeID) bool
		want string
	}{
		{"gather", func(aggs, _ map[torus.NodeID]bool, n torus.NodeID) bool { return !aggs[n] }, "gather leg"},
		{"write", func(aggs, bridges map[torus.NodeID]bool, n torus.NodeID) bool { return aggs[n] && !bridges[n] }, "write leg"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newAggRig(t, torus.Shape{2, 2, 4, 4, 2}, 16)
			a, err := NewAggPlanner(r.ios, r.job, r.p, DefaultAggConfig())
			if err != nil {
				t.Fatal(err)
			}
			data := workload.Dense(r.job.NumRanks(), 1<<20)
			var total int64
			for _, d := range data {
				total += d
			}
			_, sel := a.AggregatorsFor(total)
			aggs := map[torus.NodeID]bool{}
			for _, ag := range sel {
				aggs[ag.Node] = true
			}
			bridges := map[torus.NodeID]bool{}
			for pi := 0; pi < r.ios.NumPsets(); pi++ {
				for _, b := range r.ios.Pset(pi).Bridges {
					bridges[b] = true
				}
			}
			victim := torus.NodeID(-1)
			for n := torus.NodeID(0); int(n) < r.tor.Size(); n++ {
				if tc.pick(aggs, bridges, n) {
					victim = n
					break
				}
			}
			if victim < 0 {
				t.Fatal("no node fits the case")
			}
			isolate(r.tor, r.net, victim)
			_, err = a.Plan(r.engine(t), data)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Plan with node %d isolated: err = %v, want one naming the %s", victim, err, tc.want)
			}
		})
	}
}
