package serve

import (
	"fmt"
	"hash/fnv"
	"math/bits"
	"slices"
	"sync"

	"bgqflow/internal/core"
	"bgqflow/internal/ionet"
	"bgqflow/internal/mpisim"
	"bgqflow/internal/netsim"
	"bgqflow/internal/scenario"
	"bgqflow/internal/sim"
	"bgqflow/internal/stats"
	"bgqflow/internal/topo"
	"bgqflow/internal/torus"
	"bgqflow/internal/trace"
	"bgqflow/internal/workload"
)

// This file holds the daemon's wire types and the pure plan
// computations behind them. Every Compute* function is a deterministic
// function of (request, fault set): it builds a fresh torus + network +
// engine, runs the same planner code path the one-shot CLIs use, and
// serializes the outcome. Purity is what makes the plan cache and
// request coalescing sound — and what the e2e differential test pins:
// plans served under concurrency must be byte-identical to a direct
// single-threaded planner call.

// PairRequest asks for an Algorithm 1 point-to-point plan.
type PairRequest struct {
	// Shape is the partition geometry, e.g. "2x2x4x4x2". Ignored when
	// Topology is set.
	Shape string `json:"shape,omitempty"`
	// Topology selects a non-torus fabric by topo.Parse spec (e.g.
	// "dragonfly:8x8x2"). Empty means the torus described by Shape — the
	// BG/Q-default compatibility rule, so every pre-topology client keeps
	// getting byte-identical plans. Non-torus plans are direct-only: the
	// paper's proxy placement and the daemon's torus-shaped fault events
	// are 5D-torus constructs.
	Topology string `json:"topology,omitempty"`
	// Src and Dst are node IDs.
	Src int `json:"src"`
	Dst int `json:"dst"`
	// Bytes is the message size.
	Bytes int64 `json:"bytes"`
	// Proxies selects the mode: -1 forces direct, 0 uses the default
	// config (the paper's operating point), >0 forces up to that many
	// proxies (MinProxies 1, threshold 0) — the same convention as the
	// bgqsim scenario schema.
	Proxies int `json:"proxies"`
}

// Validate rejects malformed requests before they reach a worker.
func (r PairRequest) Validate() error {
	var size int
	if r.Topology != "" {
		tp, err := topo.Parse(r.Topology)
		if err != nil {
			return err
		}
		size = tp.NumNodes()
	} else {
		shape, err := torus.ParseShape(r.Shape)
		if err != nil {
			return err
		}
		size = 1
		for _, ext := range shape {
			size *= ext
		}
	}
	if r.Src < 0 || r.Src >= size || r.Dst < 0 || r.Dst >= size {
		return fmt.Errorf("serve: pair endpoints (%d,%d) outside fabric of %d nodes", r.Src, r.Dst, size)
	}
	if r.Bytes < 1 {
		return fmt.Errorf("serve: pair bytes %d must be >= 1", r.Bytes)
	}
	if r.Proxies < -1 {
		return fmt.Errorf("serve: proxies %d must be >= -1", r.Proxies)
	}
	return nil
}

// GroupRequest asks for a group-to-group coupling plan (Figs. 6-7).
type GroupRequest struct {
	Shape     string `json:"shape"`
	SrcOrigin []int  `json:"srcOrigin"`
	SrcExtent []int  `json:"srcExtent"`
	DstOrigin []int  `json:"dstOrigin"`
	DstExtent []int  `json:"dstExtent"`
	// Bytes is the per-pair message size.
	Bytes int64 `json:"bytes"`
	// Proxies: -1 direct, 0 auto-disjoint, >0 forced group count.
	Proxies int `json:"proxies"`
}

// Validate rejects malformed requests; box validity against the torus is
// checked at compute time (torus.NewBox).
func (r GroupRequest) Validate() error {
	if _, err := torus.ParseShape(r.Shape); err != nil {
		return err
	}
	if r.Bytes < 1 {
		return fmt.Errorf("serve: group bytes %d must be >= 1", r.Bytes)
	}
	if r.Proxies < -1 {
		return fmt.Errorf("serve: proxies %d must be >= -1", r.Proxies)
	}
	return nil
}

// AggRequest asks for an Algorithm 2 I/O aggregation plan for a seeded
// workload burst.
type AggRequest struct {
	Shape string `json:"shape"`
	// RanksPerNode defaults to 16.
	RanksPerNode int `json:"ranksPerNode"`
	// Mapping is the BG/Q rank map order (default ABCDET).
	Mapping string `json:"mapping"`
	// Workload is "pattern1", "pattern2", "dense", or "hacc".
	Workload string `json:"workload"`
	// MaxBytes is the per-rank maximum; defaults to 8 MB.
	MaxBytes int64 `json:"maxBytes"`
	// Seed makes the burst reproducible.
	Seed int64 `json:"seed"`
}

// Validate rejects malformed requests and fills defaults (the request is
// canonicalized so equal requests hash equal).
func (r *AggRequest) Validate() error {
	if _, err := torus.ParseShape(r.Shape); err != nil {
		return err
	}
	switch r.Workload {
	case "pattern1", "pattern2", "dense", "hacc":
	default:
		return fmt.Errorf("serve: unknown workload %q", r.Workload)
	}
	if r.RanksPerNode == 0 {
		r.RanksPerNode = 16
	}
	if r.RanksPerNode < 0 {
		return fmt.Errorf("serve: ranksPerNode %d", r.RanksPerNode)
	}
	if r.MaxBytes == 0 {
		r.MaxBytes = 8 << 20
	}
	if r.MaxBytes < 0 {
		return fmt.Errorf("serve: maxBytes %d", r.MaxBytes)
	}
	if r.Mapping == "" {
		r.Mapping = string(mpisim.DefaultMapOrder)
	}
	return nil
}

// FlowWire is one submitted flow: endpoints, size, and the resolved
// route (torus link IDs) — enough for a client to audit link-disjointness
// or fault avoidance.
type FlowWire struct {
	Src   int    `json:"src"`
	Dst   int    `json:"dst"`
	Bytes int64  `json:"bytes"`
	Links []int  `json:"links,omitempty"`
	Label string `json:"label,omitempty"`
}

// ProxyWire is one selected proxy with its two leg routes.
type ProxyWire struct {
	Proxy int   `json:"proxy"`
	Leg1  []int `json:"leg1"`
	Leg2  []int `json:"leg2"`
}

// PairPlan is the wire form of a served point-to-point plan.
type PairPlan struct {
	Mode string `json:"mode"`
	// Topology echoes the request's non-torus fabric spec; omitted for
	// torus plans (wire compatibility with pre-topology clients).
	Topology   string      `json:"topology,omitempty"`
	Proxies    []ProxyWire `json:"proxies,omitempty"`
	Bytes      int64       `json:"bytes"`
	Flows      []FlowWire  `json:"flows"`
	MakespanMS float64     `json:"makespanMS"`
	GBps       float64     `json:"gbps"`
}

// GroupPlan is the wire form of a served group-coupling plan.
type GroupPlan struct {
	Mode        string     `json:"mode"`
	Groups      []string   `json:"groups,omitempty"`
	PairCount   int        `json:"pairCount"`
	DirectPairs int        `json:"directPairs"`
	TotalBytes  int64      `json:"totalBytes"`
	Flows       int        `json:"flows"`
	MakespanMS  float64    `json:"makespanMS"`
	GBps        float64    `json:"gbps"`
	FlowSpecs   []FlowWire `json:"flowSpecs,omitempty"`
}

// AggWire is one selected aggregator.
type AggWire struct {
	Node   int `json:"node"`
	Pset   int `json:"pset"`
	Bridge int `json:"bridge"`
}

// AggPlan is the wire form of a served I/O aggregation plan.
type AggPlan struct {
	TotalBytes      int64     `json:"totalBytes"`
	AggPerPset      int       `json:"aggPerPset"`
	NumAggregators  int       `json:"numAggregators"`
	Senders         int       `json:"senders"`
	Aggregators     []AggWire `json:"aggregators,omitempty"`
	MetadataMS      float64   `json:"metadataMS"`
	MakespanMS      float64   `json:"makespanMS"`
	GBps            float64   `json:"gbps"`
	UplinkImbalance float64   `json:"uplinkImbalance"`
}

// SimResult is the wire form of a full scenario run (bgqsim's output,
// minus the trace, which is too large to cache and serve).
type SimResult struct {
	Mode            string   `json:"mode"`
	GBps            float64  `json:"gbps"`
	MakespanMS      float64  `json:"makespanMS"`
	UplinkImbalance float64  `json:"uplinkImbalance,omitempty"`
	Notes           []string `json:"notes,omitempty"`
}

// applicableFaults filters the daemon's fault set down to the entries
// that name a valid link of this torus; events recorded against other
// geometries do not apply.
func applicableFaults(tor *torus.Torus, faults []scenario.FailLink) []scenario.FailLink {
	var out []scenario.FailLink
	for _, fl := range faults {
		if fl.Node < 0 || fl.Node >= tor.Size() || fl.Dim < 0 || fl.Dim >= tor.Dims() {
			continue
		}
		if fl.Dir != 1 && fl.Dir != -1 {
			continue
		}
		out = append(out, fl)
	}
	return out
}

func failNetworkLinks(tor *torus.Torus, net *netsim.Network, faults []scenario.FailLink) {
	for _, fl := range faults {
		dir := torus.Plus
		if fl.Dir == -1 {
			dir = torus.Minus
		}
		net.FailLink(tor.LinkID(torus.NodeID(fl.Node), fl.Dim, dir))
	}
}

// flowWires serializes every flow submitted to the engine, in submission
// order, with its resolved route.
func flowWires(e *netsim.Engine) []FlowWire {
	out := make([]FlowWire, e.NumFlows())
	for id := 0; id < e.NumFlows(); id++ {
		spec := e.Spec(netsim.FlowID(id))
		out[id] = FlowWire{
			Src:   int(spec.Src),
			Dst:   int(spec.Dst),
			Bytes: spec.Bytes,
			Links: e.FlowRouteLinks(netsim.FlowID(id)),
			Label: spec.Label,
		}
	}
	return out
}

// pairConfig maps the request's Proxies knob onto a ProxyConfig, the
// same convention the bgqsim scenario schema uses.
func pairConfig(proxies int) core.ProxyConfig {
	cfg := core.DefaultProxyConfig()
	if proxies < 0 {
		cfg.Threshold = 1 << 62
	} else if proxies > 0 {
		cfg.MaxProxies = proxies
		cfg.MinProxies = 1
		cfg.Threshold = 0
	}
	return cfg
}

// ComputePair plans one point-to-point transfer and simulates it.
func ComputePair(req PairRequest, faults []scenario.FailLink) (PairPlan, error) {
	plan, _, err := computePair(req, faults)
	return plan, err
}

// computePair is ComputePair plus the plan's fault footprint: the sorted
// link keys (see linkKey) of every link whose fault status the planner
// queried, and of every link a submitted flow rides. The plan is a pure
// function of the fault status of those links alone, so it stays valid
// across any fault event that changes none of them (DESIGN.md §12).
// Non-torus plans return a nil footprint: they are epoch-only.
func computePair(req PairRequest, faults []scenario.FailLink) (PairPlan, []uint64, error) {
	if err := req.Validate(); err != nil {
		return PairPlan{}, nil, err
	}
	if req.Topology != "" {
		plan, err := computePairTopo(req)
		return plan, nil, err
	}
	shape, err := torus.ParseShape(req.Shape)
	if err != nil {
		return PairPlan{}, nil, err
	}
	tor, err := torus.New(shape)
	if err != nil {
		return PairPlan{}, nil, err
	}
	params := netsim.DefaultParams()
	net := netsim.NewNetwork(tor, params.LinkBandwidth)
	faults = applicableFaults(tor, faults)
	failNetworkLinks(tor, net, faults)
	e, err := netsim.NewEngine(net, params)
	if err != nil {
		return PairPlan{}, nil, err
	}
	pl, err := core.NewPairPlanner(tor, pairConfig(req.Proxies))
	if err != nil {
		return PairPlan{}, nil, err
	}
	// The planner reads fault state only through this predicate, so the
	// links it records are every link its decisions depended on. It is
	// installed even with no faults: an all-false predicate routes
	// exactly like none (RouteAvoiding's first candidate is the
	// deterministic route), and a fault-free plan still needs a
	// footprint to survive the next fault.
	seen := make([]uint64, (tor.NumTorusLinks()+63)/64)
	mark := func(l int) { seen[l>>6] |= 1 << (l & 63) }
	pl.SetFaults(func(l int) bool {
		mark(l)
		return net.LinkFailed(l)
	})
	plan, err := pl.PlanPair(e, torus.NodeID(req.Src), torus.NodeID(req.Dst), req.Bytes)
	if err != nil {
		return PairPlan{}, nil, err
	}
	mk, err := e.Run()
	if err != nil {
		return PairPlan{}, nil, err
	}
	wire := PairWireFromPlan(e, plan, float64(mk))
	for _, f := range wire.Flows {
		for _, l := range f.Links {
			mark(l)
		}
	}
	return wire, footprintKeys(tor, seen), nil
}

// footprintKeys converts a link bitset into sorted link keys. Link IDs
// and link keys both order by (node, dim, dir), so a bit scan in ID
// order yields sorted keys.
func footprintKeys(tor *torus.Torus, seen []uint64) []uint64 {
	n := 0
	for _, w := range seen {
		n += bits.OnesCount64(w)
	}
	keys := make([]uint64, 0, n)
	for i, w := range seen {
		for w != 0 {
			l := i<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			node, dim, dir := tor.LinkFrom(l)
			keys = append(keys, linkKey(int(node), dim, int(dir)))
		}
	}
	return keys
}

// linkKey packs a fault triple (node, dim, dir) into one ordered key.
// Triples are geometry-independent, as in applicableFaults: a key names
// the same link on every torus that has it. Dimensions stay below
// torus.MaxDims (3 bits) and node IDs below 2^59 on any torus the daemon
// can build; keyable reports whether a triple fits.
func linkKey(node, dim, dir int) uint64 {
	k := uint64(node)<<4 | uint64(dim)<<1
	if dir == -1 {
		k |= 1
	}
	return k
}

func keyable(fl scenario.FailLink) bool {
	return fl.Node >= 0 && uint64(fl.Node) < 1<<59 && fl.Dim >= 0 && fl.Dim < torus.MaxDims && (fl.Dir == 1 || fl.Dir == -1)
}

// linkDelta returns the sorted keys of the links whose fault status
// differs between two fault sets: the symmetric difference, so a heal
// (a link leaving the set) counts exactly like a failure. Triples no
// torus can have are dropped; applicableFaults would drop them too.
func linkDelta(prev, next []scenario.FailLink) []uint64 {
	set := func(fs []scenario.FailLink) []uint64 {
		keys := make([]uint64, 0, len(fs))
		for _, fl := range fs {
			if keyable(fl) {
				keys = append(keys, linkKey(fl.Node, fl.Dim, fl.Dir))
			}
		}
		slices.Sort(keys)
		return slices.Compact(keys)
	}
	a, b := set(prev), set(next)
	var out []uint64
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0] < b[0]:
			out, a = append(out, a[0]), a[1:]
		case a[0] > b[0]:
			out, b = append(out, b[0]), b[1:]
		default:
			a, b = a[1:], b[1:]
		}
	}
	out = append(out, a...)
	return append(out, b...)
}

// computePairTopo plans a direct transfer on a non-torus fabric. The
// daemon's fault events are torus link coordinates and do not apply; the
// proxy ladder is torus-specific, so the plan is always direct (a
// request forcing proxies is rejected rather than silently downgraded).
func computePairTopo(req PairRequest) (PairPlan, error) {
	if req.Proxies > 0 {
		return PairPlan{}, fmt.Errorf("serve: proxy planning is torus-only; topology %q serves direct plans", req.Topology)
	}
	tp, err := topo.Parse(req.Topology)
	if err != nil {
		return PairPlan{}, err
	}
	params := netsim.DefaultParams()
	net := netsim.NewNetworkTopo(tp, params.LinkBandwidth)
	e, err := netsim.NewEngine(net, params)
	if err != nil {
		return PairPlan{}, err
	}
	e.Submit(netsim.FlowSpec{
		Src:   torus.NodeID(req.Src),
		Dst:   torus.NodeID(req.Dst),
		Bytes: req.Bytes,
		Label: "direct",
	})
	mk, err := e.Run()
	if err != nil {
		return PairPlan{}, err
	}
	return PairPlan{
		Mode:       "direct",
		Topology:   tp.Spec(),
		Bytes:      req.Bytes,
		Flows:      flowWires(e),
		MakespanMS: float64(mk) * 1e3,
		GBps:       netsim.Throughput(req.Bytes, sim.Duration(mk)) / 1e9,
	}, nil
}

// PairWireFromPlan builds the wire form from a core plan plus the engine
// it was submitted to. Exported so differential tests can construct the
// expected bytes from a direct planner call.
func PairWireFromPlan(e *netsim.Engine, plan core.PairPlan, makespanSec float64) PairPlan {
	out := PairPlan{
		Mode:       plan.Mode.String(),
		Bytes:      plan.Bytes,
		Flows:      flowWires(e),
		MakespanMS: makespanSec * 1e3,
		GBps:       netsim.Throughput(plan.Bytes, sim.Duration(makespanSec)) / 1e9,
	}
	for _, pr := range plan.Proxies {
		out.Proxies = append(out.Proxies, ProxyWire{
			Proxy: int(pr.Proxy),
			Leg1:  append([]int(nil), pr.Leg1.Links...),
			Leg2:  append([]int(nil), pr.Leg2.Links...),
		})
	}
	return out
}

// ComputeGroup plans one group-to-group transfer and simulates it.
func ComputeGroup(req GroupRequest, faults []scenario.FailLink) (GroupPlan, error) {
	if err := req.Validate(); err != nil {
		return GroupPlan{}, err
	}
	shape, err := torus.ParseShape(req.Shape)
	if err != nil {
		return GroupPlan{}, err
	}
	tor, err := torus.New(shape)
	if err != nil {
		return GroupPlan{}, err
	}
	sBox, err := torus.NewBox(tor, req.SrcOrigin, req.SrcExtent)
	if err != nil {
		return GroupPlan{}, fmt.Errorf("serve: srcBox: %w", err)
	}
	dBox, err := torus.NewBox(tor, req.DstOrigin, req.DstExtent)
	if err != nil {
		return GroupPlan{}, fmt.Errorf("serve: dstBox: %w", err)
	}
	params := netsim.DefaultParams()
	net := netsim.NewNetwork(tor, params.LinkBandwidth)
	failNetworkLinks(tor, net, applicableFaults(tor, faults))
	e, err := netsim.NewEngine(net, params)
	if err != nil {
		return GroupPlan{}, err
	}
	cfg := core.DefaultProxyConfig()
	if req.Proxies < 0 {
		cfg.Threshold = 1 << 62
	}
	gp, err := core.NewGroupPlanner(tor, cfg)
	if err != nil {
		return GroupPlan{}, err
	}
	if req.Proxies > 0 {
		gp.ForceGroups = req.Proxies
	}
	plan, err := gp.Plan(e, sBox, dBox, req.Bytes)
	if err != nil {
		return GroupPlan{}, err
	}
	mk, err := e.Run()
	if err != nil {
		return GroupPlan{}, err
	}
	return GroupWireFromPlan(e, plan, req.Bytes, float64(mk)), nil
}

// GroupWireFromPlan builds the wire form from a core group plan.
func GroupWireFromPlan(e *netsim.Engine, plan core.GroupPlan, bytesPerPair int64, makespanSec float64) GroupPlan {
	out := GroupPlan{
		Mode:        plan.Mode.String(),
		PairCount:   plan.PairCount,
		DirectPairs: plan.DirectPairs,
		TotalBytes:  plan.TotalBytes,
		Flows:       e.NumFlows(),
		MakespanMS:  makespanSec * 1e3,
		GBps:        netsim.Throughput(bytesPerPair, sim.Duration(makespanSec)) / 1e9,
		FlowSpecs:   flowWires(e),
	}
	for _, g := range plan.Groups {
		out.Groups = append(out.Groups, g.String())
	}
	return out
}

// ComputeAgg plans one seeded write burst under Algorithm 2 and
// simulates it.
func ComputeAgg(req AggRequest, faults []scenario.FailLink) (AggPlan, error) {
	if err := req.Validate(); err != nil {
		return AggPlan{}, err
	}
	shape, err := torus.ParseShape(req.Shape)
	if err != nil {
		return AggPlan{}, err
	}
	tor, err := torus.New(shape)
	if err != nil {
		return AggPlan{}, err
	}
	params := netsim.DefaultParams()
	net := netsim.NewNetwork(tor, params.LinkBandwidth)
	ios, err := ionet.Build(net, ionet.DefaultConfig())
	if err != nil {
		return AggPlan{}, err
	}
	failNetworkLinks(tor, net, applicableFaults(tor, faults))
	job, err := mpisim.NewJobWithMapping(tor, req.RanksPerNode, mpisim.MapOrder(req.Mapping))
	if err != nil {
		return AggPlan{}, err
	}
	var data []int64
	switch req.Workload {
	case "pattern1":
		data = workload.Uniform(job.NumRanks(), req.MaxBytes, req.Seed)
	case "pattern2":
		data = workload.Pattern2(job.NumRanks(), req.MaxBytes, req.Seed)
	case "dense":
		data = workload.Dense(job.NumRanks(), req.MaxBytes)
	case "hacc":
		data = workload.HACC(job.NumRanks(), req.MaxBytes/workload.HACCRecordBytes)
	}
	e, err := netsim.NewEngine(net, params)
	if err != nil {
		return AggPlan{}, err
	}
	pl, err := core.NewAggPlanner(ios, job, params, core.DefaultAggConfig())
	if err != nil {
		return AggPlan{}, err
	}
	plan, err := pl.Plan(e, data)
	if err != nil {
		return AggPlan{}, err
	}
	mk, err := e.Run()
	if err != nil {
		return AggPlan{}, err
	}
	var aggs []core.Aggregator
	if plan.TotalBytes > 0 {
		// Re-derive the (deterministic) selection so the wire form can
		// carry it; mirror the planner's degraded-pset filtering.
		_, aggs = pl.AggregatorsFor(plan.TotalBytes)
		if net.HasFailures() {
			live := aggs[:0]
			for _, ag := range aggs {
				if !net.NodeFailed(ag.Node) {
					live = append(live, ag)
				}
			}
			aggs = live
		}
	}
	return AggWireFromPlan(e, ios, plan, aggs, float64(mk)), nil
}

// AggWireFromPlan builds the wire form from a core aggregation plan plus
// the (already fault-filtered) aggregator selection behind it.
func AggWireFromPlan(e *netsim.Engine, ios *ionet.System, plan core.AggPlan, aggs []core.Aggregator, makespanSec float64) AggPlan {
	out := AggPlan{
		TotalBytes:     plan.TotalBytes,
		AggPerPset:     plan.AggPerPset,
		NumAggregators: plan.NumAggregators,
		Senders:        plan.Senders,
		MetadataMS:     float64(plan.Metadata) * 1e3,
		MakespanMS:     (makespanSec + float64(plan.Metadata)) * 1e3,
	}
	denom := makespanSec + float64(plan.Metadata)
	if denom > 0 {
		out.GBps = float64(plan.TotalBytes) / denom / 1e9
	}
	out.UplinkImbalance = stats.ImbalanceRatio(trace.UplinkLoads(e, ios))
	for _, ag := range aggs {
		out.Aggregators = append(out.Aggregators, AggWire{Node: int(ag.Node), Pset: ag.Pset, Bridge: ag.Bridge})
	}
	return out
}

// ComputeSim runs a full declarative scenario (the bgqsim schema). The
// daemon's fault set is merged into the scenario's failLinks (entries
// valid for its shape only); trace collection is disabled — traces are
// per-request artifacts, not cacheable plans.
func ComputeSim(cfg scenario.Config, faults []scenario.FailLink) (SimResult, error) {
	cfg.CollectTrace = false
	if shape, err := torus.ParseShape(cfg.Shape); err == nil {
		if tor, terr := torus.New(shape); terr == nil {
			cfg.FailLinks = append(append([]scenario.FailLink(nil), cfg.FailLinks...),
				applicableFaults(tor, faults)...)
		}
	}
	res, err := scenario.Run(cfg)
	if err != nil {
		return SimResult{}, err
	}
	return SimResult{
		Mode:            res.Mode,
		GBps:            res.GBps,
		MakespanMS:      res.MakespanMS,
		UplinkImbalance: res.UplinkImbalance,
		Notes:           res.Notes,
	}, nil
}

// paramsSignature folds the machine constants into the cache key so a
// future multi-params daemon can never serve a plan computed under
// different hardware assumptions. The constants are fixed for the
// process, so the hash is computed once.
var paramsSignature = sync.OnceValue(func() uint64 {
	p := netsim.DefaultParams()
	h := fnv.New64a()
	fmt.Fprintf(h, "%v", p)
	return h.Sum64()
})

// bytesBucket buckets a message size by power of two — the cache-key
// granularity axis from the issue: requests in the same bucket share a
// shard and sort near each other, while the exact size still
// distinguishes entries (plans must be byte-exact).
func bytesBucket(b int64) int {
	bucket := 0
	for b > 0 {
		b >>= 1
		bucket++
	}
	return bucket
}

// CacheKey builds the canonical cache key for a request: kind, shape,
// machine-params hash, endpoints, bytes bucket, and the full canonical
// request encoding. Identical requests — and only identical requests —
// produce identical keys.
func cacheKey(kind, shape string, src, dst int, bytes int64, canonical string) string {
	return fmt.Sprintf("%s|%s|%x|%d|%d|b%d|%s", kind, shape, paramsSignature(), src, dst, bytesBucket(bytes), canonical)
}

func (r PairRequest) cacheKey() string {
	// A topology spec takes the geometry slot; it always contains ':', so
	// it can never collide with a torus shape string.
	geom := r.Shape
	if r.Topology != "" {
		geom = r.Topology
	}
	return cacheKey("pair", geom, r.Src, r.Dst, r.Bytes,
		fmt.Sprintf("%d|%d", r.Bytes, r.Proxies))
}

func (r GroupRequest) cacheKey() string {
	return cacheKey("group", r.Shape, -1, -1, r.Bytes,
		fmt.Sprintf("%v|%v|%v|%v|%d|%d", r.SrcOrigin, r.SrcExtent, r.DstOrigin, r.DstExtent, r.Bytes, r.Proxies))
}

func (r AggRequest) cacheKey() string {
	return cacheKey("agg", r.Shape, -1, -1, r.MaxBytes,
		fmt.Sprintf("%d|%s|%s|%d|%d", r.RanksPerNode, r.Mapping, r.Workload, r.MaxBytes, r.Seed))
}

func simCacheKey(cfg scenario.Config, canonical []byte) string {
	h := fnv.New64a()
	h.Write(canonical)
	return cacheKey("sim", cfg.Shape, -1, -1, 0, fmt.Sprintf("%x", h.Sum64()))
}
