package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"hash/maphash"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bgqflow/internal/cluster"
	"bgqflow/internal/obs"
	"bgqflow/internal/scenario"
	"bgqflow/internal/serve"
	"bgqflow/internal/torus"
	"bgqflow/internal/workload"
)

// The served workloads plan on the paper's 128-node partition.
const (
	serveShape = "2x2x4x4x2"
	mixSize    = 256
	clients    = 2 // nproc of the 2-vCPU host the benchmark was sized on
)

// serveSpec is what differs between serve-hot and ring-faults.
type serveSpec struct {
	replicas int
	// faultEvery posts one fault per that many plan requests (0: none).
	faultEvery int
	// rate is the open phase's fixed arrival rate, a third or less of
	// the closed-loop capacity measured at the commit that introduced the
	// benchmark in the host's slow stretches, so the open phase measures
	// latency below saturation even when the shared host slows.
	rate float64
	// batch is the closed-phase unit whose duration run_s reports.
	batch int
}

var (
	serveHot   = serveSpec{replicas: 1, rate: 4500, batch: 1000}
	ringFaults = serveSpec{replicas: 3, faultEvery: 50, rate: 1000, batch: 400}
)

var pairSizes = []int64{256 << 10, 1 << 20, 4 << 20, 8 << 20}

// sizeFor ties a message size to its endpoint pair, so a hot pair repeats
// as an identical, cacheable request.
func sizeFor(p workload.Pair) int64 {
	h := fnv.New32a()
	fmt.Fprintf(h, "%d/%d", p.Src, p.Dst)
	return pairSizes[int(h.Sum32())%len(pairSizes)]
}

// serveGeometry returns serveShape's node and dimension counts.
func serveGeometry() (nodes, dims int) {
	shape, err := torus.ParseShape(serveShape)
	if err != nil {
		panic(err) // serveShape is a constant
	}
	nodes = 1
	for _, ext := range shape {
		nodes *= ext
	}
	return nodes, len(shape)
}

// buildMix draws the request ring from the uniform, neighbor, shift and
// sparse pair patterns (the sparse one with its Zipf hot set).
func buildMix(seed int64) ([]serve.PairRequest, error) {
	patterns := []string{"uniform", "neighbor", "shift", "sparse"}
	nodes, _ := serveGeometry()
	per := mixSize/len(patterns) + 1
	streams := make([][]workload.Pair, len(patterns))
	for i, name := range patterns {
		var err error
		if streams[i], err = workload.Pairs(name, per, nodes, seed+int64(i)); err != nil {
			return nil, err
		}
	}
	rng := rand.New(rand.NewSource(seed))
	used := make([]int, len(patterns))
	mix := make([]serve.PairRequest, mixSize)
	for i := range mix {
		k := rng.Intn(len(patterns))
		p := streams[k][used[k]%per]
		used[k]++
		mix[i] = serve.PairRequest{Shape: serveShape, Src: p.Src, Dst: p.Dst, Bytes: sizeFor(p)}
	}
	return mix, nil
}

// planner is the client surface the serve workloads drive: a
// *serve.Client for one daemon, a *serve.RingClient for the ring.
type planner interface {
	PlanPair(context.Context, serve.PairRequest) (serve.PlanResult, error)
	Fault(context.Context, serve.FaultEvent) (uint64, error)
	MinVector() string
}

// daemon is one in-process bgqd on a loopback port.
type daemon struct {
	srv  *serve.Server
	hs   *http.Server
	done chan struct{}
}

// fleet is one set-up of the served system.
type fleet struct {
	daemons []*daemon
	members []cluster.Member
}

func startFleet(n int, t *tap) (*fleet, error) {
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i], urls[i] = ln, "http://"+ln.Addr().String()
	}
	f := &fleet{}
	for i := range lns {
		var cfg serve.Config
		if n > 1 {
			cfg.ReplicaID = fmt.Sprintf("r%d", i)
			cfg.GossipSeed = int64(i + 1)
			for j, u := range urls {
				if j != i {
					cfg.Peers = append(cfg.Peers, u)
				}
			}
		}
		d := &daemon{srv: serve.New(cfg), done: make(chan struct{})}
		d.hs = &http.Server{Handler: t.wrap(d.srv.Handler())}
		go func(ln net.Listener) {
			defer close(d.done)
			d.hs.Serve(ln)
		}(lns[i])
		f.daemons = append(f.daemons, d)
		f.members = append(f.members, cluster.Member{ID: fmt.Sprintf("r%d", i), Addr: urls[i]})
	}
	return f, nil
}

// stop shuts every daemon down and waits for its server goroutine.
func (f *fleet) stop() {
	for _, d := range f.daemons {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		d.hs.Shutdown(ctx)
		cancel()
		<-d.done
	}
	for _, d := range f.daemons {
		d.srv.Close()
	}
}

// client builds a planner for the fleet; traced clients stamp every
// request with a trace ID the tap joins on.
func (f *fleet) client(traced bool) (planner, *serve.RingClient, error) {
	var rec *obs.WallRecorder
	if traced {
		rec = obs.NewWallRecorder(1024)
	}
	if len(f.daemons) == 1 {
		c, err := serve.NewClient(f.members[0].Addr)
		if err != nil {
			return nil, nil, err
		}
		c.SetTracer(rec)
		return c, nil, nil
	}
	rc, err := serve.NewRingClient(f.members)
	if err != nil {
		return nil, nil, err
	}
	rc.SetTracer(rec)
	return rc, rc, nil
}

func (f *fleet) counter(name string) int64 {
	var n int64
	for _, d := range f.daemons {
		n += d.srv.Registry().Counter(name).Value()
	}
	return n
}

// served is one successful plan response, kept for verification after
// the timed phases: the mix slot, the fault-epoch vector it was served
// under, and a hash of its plan bytes.
type served struct {
	slot int32
	vec  int32 // index into loader.vecs
	hash uint64
}

// servedCap preallocates the served records of a run, so the
// benchmark's own live heap, and with it the collector's pacing, does
// not grow while it measures.
const servedCap = 1 << 18

// call is one traced plan request.
type call struct {
	trace              string
	rtUs               float64
	queueMs, computeMs float64
}

var hashSeed = maphash.MakeSeed()

// loader issues the mix against one planner and records every outcome.
type loader struct {
	mix []serve.PairRequest

	mu       sync.Mutex
	served   []served
	vecs     []string         // distinct served vectors
	vecIDs   map[string]int32 // vector -> index in vecs
	attempt  int64
	failed   int64
	reasons  []string
	calls    []call
	retries  int64
	requests atomic.Int64

	// onRequest, when set, runs after every plan request with the running
	// request count (the fault poster's clock).
	onRequest func(n int64)
}

func newLoader(mix []serve.PairRequest) *loader {
	return &loader{mix: mix, vecIDs: map[string]int32{}}
}

func (d *loader) failf(format string, args ...any) {
	d.failed++
	if len(d.reasons) < 5 {
		d.reasons = append(d.reasons, fmt.Sprintf(format, args...))
	}
}

// do sends mix slot i%len(mix) through p and records the outcome.
func (d *loader) do(ctx context.Context, p planner, i int, traced bool) bool {
	k := i % len(d.mix)
	t0 := time.Now()
	res, err := p.PlanPair(ctx, d.mix[k])
	rt := time.Since(t0)
	ok := err == nil && res.OK()
	var h uint64
	if ok {
		h = maphash.Bytes(hashSeed, res.Plan)
	}
	d.mu.Lock()
	d.attempt++
	d.retries += int64(res.Retries)
	switch {
	case err != nil:
		d.failf("slot %d: %v", k, err)
	case !ok:
		d.failf("slot %d: status %d: %s", k, res.Status, res.Err)
	default:
		id, seen := d.vecIDs[res.Vector]
		if !seen {
			id = int32(len(d.vecs))
			d.vecs = append(d.vecs, res.Vector)
			d.vecIDs[res.Vector] = id
		}
		d.served = append(d.served, served{int32(k), id, h})
	}
	if traced {
		d.calls = append(d.calls, call{res.Trace, float64(rt) / 1e3, res.QueueMS, res.ComputeMS})
	}
	d.mu.Unlock()
	if d.onRequest != nil {
		d.onRequest(d.requests.Add(1))
	}
	return ok
}

// closedPhase runs `clients` closed-loop clients for dur and returns the
// successful plans per second and the duration of each batch of
// `batch` successful plans.
func (d *loader) closedPhase(p planner, dur time.Duration, batch int, traced bool) (float64, []float64) {
	ctx := context.Background()
	var next, ok atomic.Int64
	var mu sync.Mutex
	start := time.Now()
	marks := []time.Time{start}
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				if !d.do(ctx, p, int(next.Add(1)-1), traced) {
					continue
				}
				if n := ok.Add(1); n%int64(batch) == 0 {
					mu.Lock()
					marks = append(marks, time.Now())
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	sort.Slice(marks, func(i, j int) bool { return marks[i].Before(marks[j]) })
	var batches []float64
	for i := 1; i < len(marks); i++ {
		batches = append(batches, marks[i].Sub(marks[i-1]).Seconds())
	}
	return float64(ok.Load()) / elapsed, batches
}

// poster is the ring-faults fault poster: one goroutine that posts a
// seeded fault event once per faultEvery plan requests, serially, and
// keeps the log that names what each served vector contains.
type poster struct {
	nodes, dims int
	rng         *rand.Rand
	active      int

	log    faultLog
	known  cluster.Vector // every acknowledged post, merged
	acks   []float64
	failed int64
	errs   []string

	mu   sync.Mutex
	cond *sync.Cond
	due  int
	stop bool
}

func newPoster(seed int64) *poster {
	nodes, dims := serveGeometry()
	p := &poster{nodes: nodes, dims: dims, rng: rand.New(rand.NewSource(seed ^ 0x5eedfa)), known: cluster.Vector{}}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// next draws the next event: fail one link, or Clear once three are down.
func (p *poster) next() serve.FaultEvent {
	if p.active >= 3 {
		p.active = 0
		return serve.FaultEvent{Clear: true}
	}
	p.active++
	return serve.FaultEvent{Links: []scenario.FailLink{{Node: p.rng.Intn(p.nodes), Dim: p.rng.Intn(p.dims), Dir: 1}}}
}

// post sends one event through c and logs the stamp its acknowledgement
// added. c's demanded vector holds the ack merged into whatever c had
// seen; merged with every earlier ack (a phase may switch clients), it
// differs from them by exactly this event.
func (p *poster) post(ctx context.Context, c planner) {
	ev := p.next()
	t0 := time.Now()
	_, err := c.Fault(ctx, ev)
	ack := float64(time.Since(t0)) / 1e6
	var now cluster.Vector
	if err == nil {
		now, err = cluster.ParseVector(c.MinVector())
	}
	if err == nil {
		now.Merge(p.known)
		var origin string
		var seq uint64
		if origin, seq, err = stampOf(p.known.String(), now.String()); err == nil {
			p.log = append(p.log, posted{origin, seq, ev})
			p.known = now
			p.acks = append(p.acks, ack)
			return
		}
	}
	p.failed++
	if len(p.errs) < 5 {
		p.errs = append(p.errs, err.Error())
	}
}

// run starts the poster goroutine for one phase against c; the returned
// function stops it and waits for it to exit.
func (p *poster) run(d *loader, c planner, every int) func() {
	p.mu.Lock()
	p.stop, p.due = false, 0
	p.mu.Unlock()
	d.onRequest = func(n int64) {
		if n%int64(every) == 0 {
			p.mu.Lock()
			p.due++
			p.cond.Signal()
			p.mu.Unlock()
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		ctx := context.Background()
		for {
			p.mu.Lock()
			for p.due == 0 && !p.stop {
				p.cond.Wait()
			}
			if p.stop {
				p.mu.Unlock()
				return
			}
			p.due--
			p.mu.Unlock()
			p.post(ctx, c)
		}
	}()
	return func() {
		p.mu.Lock()
		p.stop = true
		p.cond.Signal()
		p.mu.Unlock()
		<-done
		d.onRequest = nil
	}
}

// verify recomputes every distinct (slot, fault set) the phases served
// with the planner called directly, and counts each response whose plan
// bytes differ from json.Marshal of the direct plan.
func (d *loader) verify(log faultLog, corrupt bool) error {
	type key struct{ slot, vec int32 }
	want := map[key]uint64{}
	for _, s := range d.served {
		want[key{s.slot, s.vec}] = 0
	}
	keys := make([]key, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	hashes := make([]uint64, len(keys))
	errs := make([]error, len(keys))
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(clients)
	for w := 0; w < clients; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(keys) {
					return
				}
				hashes[i], errs[i] = directHash(d.mix[keys[i].slot], d.vecs[keys[i].vec], log, corrupt)
			}
		}()
	}
	wg.Wait()
	for i, k := range keys {
		if errs[i] != nil {
			return errs[i]
		}
		want[k] = hashes[i]
	}
	for _, s := range d.served {
		if want[key{s.slot, s.vec}] != s.hash {
			d.failf("slot %d under vector %q: served plan differs from the direct planner", s.slot, d.vecs[s.vec])
		}
	}
	return nil
}

// directHash hashes json.Marshal of the plan serve.ComputePair returns
// for req under the fault set vector vec names.
func directHash(req serve.PairRequest, vec string, log faultLog, corrupt bool) (uint64, error) {
	v, err := cluster.ParseVector(vec)
	if err != nil {
		return 0, err
	}
	plan, err := serve.ComputePair(req, log.faultsFor(v))
	if err != nil {
		return 0, err
	}
	b, err := json.Marshal(plan)
	if err != nil {
		return 0, err
	}
	if corrupt {
		b[len(b)/2] ^= 1
	}
	return maphash.Bytes(hashSeed, b), nil
}

// warm sends every slot of the mix once, so the timed phases start from
// a warm plan cache.
func (d *loader) warm(p planner) error {
	for i := range d.mix {
		if !d.do(context.Background(), p, i, false) {
			return fmt.Errorf("warm-up request %d failed: %v", i, d.reasons)
		}
	}
	return nil
}

// serveRounds is how many closed and open segments an untraced served
// run alternates. On the shared host a slow stretch lasted from seconds
// to tens of seconds; alternating spreads both phases over the run, so
// neither falls wholly into one stretch.
const serveRounds = 4

// serveSetups is how many times a served workload sets up, keeping the
// last, so set-up time is a median.
const serveSetups = 9

// faultProbeN is how many fault posts each single-daemon fault probe
// times.
const faultProbeN = 200

// setUp starts the fleet and warms it serveSetups times and keeps the
// last. A single daemon's fault path is probed on each fleet it tears
// down; the probes are spread over the run so one busy moment of a
// shared host does not set fault_ack_p50_ms.
func setUp(spec serveSpec, d *loader, t *tap) (*fleet, []float64, []float64, error) {
	var times, acks []float64
	for i := 0; ; i++ {
		t0 := time.Now()
		f, err := startFleet(spec.replicas, t)
		if err != nil {
			return nil, nil, nil, err
		}
		p, _, err := f.client(false)
		if err == nil {
			err = d.warm(p)
		}
		if err == nil {
			times = append(times, since(t0))
			if i == serveSetups-1 {
				return f, times, acks, nil
			}
			if spec.faultEvery == 0 {
				var a []float64
				a, err = faultProbe(p, faultProbeN)
				acks = append(acks, a...)
			}
		}
		f.stop()
		if err != nil {
			return nil, nil, nil, err
		}
	}
}

func runServe(o options, spec serveSpec) (*report, error) {
	r := newReport()
	mix, err := buildMix(o.seed)
	if err != nil {
		return nil, err
	}
	t := &tap{plan: map[string]float64{}}
	warmup := newLoader(mix)
	f, setup, acks, err := setUp(spec, warmup, t)
	if err != nil {
		return nil, err
	}
	defer f.stop()
	r.e2e["setup_s"] = median(setup)

	d := newLoader(mix)
	d.served = make([]served, 0, servedCap)
	var pst *poster
	if spec.faultEvery > 0 {
		pst = newPoster(o.seed)
	}
	// phase runs fn with the fault poster (if any) posting through c.
	phase := func(c planner, fn func()) {
		runtime.GC()
		if pst == nil {
			fn()
			return
		}
		stop := pst.run(d, c, spec.faultEvery)
		fn()
		stop()
	}
	var rings []*serve.RingClient
	newClient := func(traced bool) (planner, error) {
		c, rc, err := f.client(traced)
		if rc != nil {
			rings = append(rings, rc)
		}
		return c, err
	}
	var open openResult
	openPhase := func(c planner, dur time.Duration, traced bool) {
		phase(c, func() {
			open.add(runOpen(spec.rate, dur, clients, func(i int) bool {
				return d.do(context.Background(), c, i, traced)
			}))
		})
	}

	plain, err := newClient(false)
	if err != nil {
		return nil, err
	}
	if !o.trace {
		// A quarter of the run is closed and three quarters open, in
		// alternating segments, so each phase samples the whole run.
		var pps float64
		var batches []float64
		for i := 0; i < serveRounds; i++ {
			phase(plain, func() {
				p, b := d.closedPhase(plain, o.dur/(4*serveRounds), spec.batch, false)
				pps += p / serveRounds
				batches = append(batches, b...)
			})
			openPhase(plain, o.dur*3/(4*serveRounds), false)
		}
		r.e2e["run_s"] = median(batches)
		r.e2e["plans_per_s"] = float64(spec.batch) / r.e2e["run_s"]
		sort.Float64s(batches)
		r.notef("closed: %.0f plans/s over %d batches of %d; batch s min %.4f q1 %.4f med %.4f q3 %.4f max %.4f",
			pps, len(batches), spec.batch, batches[0], percentile(batches, 25), percentile(batches, 50), percentile(batches, 75), batches[len(batches)-1])
	} else {
		traced, err := newClient(true)
		if err != nil {
			return nil, err
		}
		var base, pps float64
		a0, n0 := allocMB(), len(d.served)
		phase(plain, func() { base, _ = d.closedPhase(plain, o.dur*3/10, spec.batch, false) })
		allocKB := (allocMB() - a0) * 1024 / float64(len(d.served)-n0)
		c0 := snapCounters(f)
		t.on.Store(true)
		phase(traced, func() { pps, _ = d.closedPhase(traced, o.dur*3/10, spec.batch, true) })
		openPhase(traced, o.dur*4/10, true)
		if spec.replicas > 1 {
			ringProbe(r, d, traced.(*serve.RingClient))
		}
		t.on.Store(false)
		r.layer["mem.alloc_kb_per_plan"] = allocKB
		r.layer["trace.overhead_ratio"] = base / pps
		snapCounters(f).sub(c0).report(r)
		d.traceLayers(r, t)
	}
	lat := summarize(open.Latency, 99)
	p50, _ := bestWindow(open.Latency, 50)
	p99, wt := bestWindow(open.Latency, 99)
	r.e2e["p50_ms"] = p50
	r.e2e["p99_ms"] = p99
	r.layer["gen.late_ms_p99"] = summarize(open.Late, 99).Tail
	r.layer["gen.sent_ratio"] = open.sentRatio()
	r.notef("open: %.0f/s, %d sent of %d scheduled, scheduler late p99 %.3f ms; whole phase n=%d p50 %.3f ms, p%g %.3f ms",
		spec.rate, open.Sent, open.Scheduled, r.layer["gen.late_ms_p99"], lat.N, lat.P50, lat.TailPct, lat.Tail)
	r.notef("p99 of %d windows: min %.3f q1 %.3f med %.3f q3 %.3f max %.3f ms",
		len(wt), p99, percentile(wt, 25), percentile(wt, 50), percentile(wt, 75), wt[len(wt)-1])
	if why := open.behind(); why != "" {
		r.invalid(why)
	}
	r.e2e["peak_rss_mb"] = peakRSSMB()

	var log faultLog
	if pst != nil {
		log = pst.log
		d.attempt += int64(len(pst.log)) + pst.failed
		d.failed += pst.failed
		d.reasons = append(d.reasons, pst.errs...)
	}
	if err := d.verify(log, o.corrupt == "plan"); err != nil {
		return nil, err
	}
	for _, rc := range rings {
		if n := rc.StaleServed(); n > 0 {
			d.failf("%d stale responses", n)
			d.failed += n - 1
		}
	}
	if pst != nil {
		r.e2e["fault_ack_p50_ms"] = median(pst.acks)
		r.notef("faults: %d posted, %d failed", len(pst.log), pst.failed)
	} else {
		// The single daemon takes no faults while timed; its fault path is
		// timed during set-up and after the served plans are verified.
		runtime.GC()
		last, err := faultProbe(plain, faultProbeN)
		if err != nil {
			return nil, err
		}
		acks = append(acks, last...)
		d.attempt += int64(len(last))
		r.e2e["fault_ack_p50_ms"] = median(acks)
	}
	if o.trace {
		r.layer["serve.stale_rejects"] = float64(f.counter("serve/stale_rejects"))
	}
	r.attempted, r.failed = d.attempt, d.failed
	r.reasons = append(r.reasons, d.reasons...)
	return r, nil
}

// faultProbe posts n events (alternately failing a link and clearing)
// to a single daemon and returns each acknowledgement's latency in ms.
func faultProbe(c planner, n int) ([]float64, error) {
	nodes, dims := serveGeometry()
	var acks []float64
	for i := 0; i < n; i++ {
		ev := serve.FaultEvent{Clear: true}
		if i%2 == 0 {
			ev = serve.FaultEvent{Links: []scenario.FailLink{{Node: i % nodes, Dim: i % dims, Dir: 1}}}
		}
		t0 := time.Now()
		if _, err := c.Fault(context.Background(), ev); err != nil {
			return nil, fmt.Errorf("fault probe: %w", err)
		}
		acks = append(acks, float64(time.Since(t0))/1e6)
	}
	return acks, nil
}

// ringProbe compares a ring round trip with a direct call to the replica
// that served it, both on cached plans.
func ringProbe(r *report, d *loader, rc *serve.RingClient) {
	ctx := context.Background()
	var ringUs, directUs []float64
	for i := 0; i < 200; i++ {
		req := d.mix[i%len(d.mix)]
		if _, err := rc.PlanPair(ctx, req); err != nil {
			continue
		}
		t0 := time.Now()
		res, err := rc.PlanPair(ctx, req)
		t1 := time.Now()
		if err != nil || !res.OK() {
			continue
		}
		c := rc.Client(res.Replica)
		if c == nil {
			continue
		}
		if _, err := c.PlanPair(ctx, req); err != nil {
			continue
		}
		ringUs = append(ringUs, float64(t1.Sub(t0))/1e3)
		directUs = append(directUs, float64(time.Since(t1))/1e3)
	}
	r.layer["ring.roundtrip_us_p50"] = median(ringUs)
	r.layer["ring.direct_us_p50"] = median(directUs)
	r.layer["ring.failovers"] = float64(rc.Registry().Counter("serve/ring/failovers").Value())
}

// counters is a snapshot of the fleet's serve counters.
type counters map[string]int64

var counterNames = []string{"serve/requests", "serve/cache_hits", "serve/coalesced", "serve/plans_computed", "serve/shed"}

func snapCounters(f *fleet) counters {
	c := counters{}
	for _, n := range counterNames {
		c[n] = f.counter(n)
	}
	return c
}

func (c counters) sub(o counters) counters {
	out := counters{}
	for k, v := range c {
		out[k] = v - o[k]
	}
	return out
}

func (c counters) report(r *report) {
	if c["serve/requests"] > 0 {
		r.layer["serve.cache_hit_ratio"] = float64(c["serve/cache_hits"]) / float64(c["serve/requests"])
	}
	r.layer["serve.plans_computed"] = float64(c["serve/plans_computed"])
	r.layer["serve.coalesced"] = float64(c["serve/coalesced"])
	r.layer["serve.shed"] = float64(c["serve/shed"])
}

// traceLayers joins each traced call with the handler time the tap
// recorded under its trace ID and reports per-layer latencies and self
// times: client (round trip minus handler), handler (minus the queue
// and compute phases the daemon reports), queue and compute.
func (d *loader) traceLayers(r *report, t *tap) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var rt, handler, queue, compute []float64
	var sumRT, sumClient, sumHandler, sumQueue, sumCompute float64
	n := 0
	for _, c := range d.calls {
		h, ok := t.plan[c.trace]
		if !ok {
			continue
		}
		n++
		rt = append(rt, c.rtUs)
		handler = append(handler, h)
		q, cm := c.queueMs*1e3, c.computeMs*1e3
		if c.queueMs > 0 || c.computeMs > 0 {
			queue = append(queue, c.queueMs)
			compute = append(compute, c.computeMs)
		}
		sumRT += c.rtUs
		sumClient += c.rtUs - h
		sumHandler += h - q - cm
		sumQueue += q
		sumCompute += cm
	}
	if n == 0 {
		return
	}
	rtD, hD := summarize(rt, 99), summarize(handler, 99)
	r.layer["client.roundtrip_us_p50"] = rtD.P50
	r.layer["client.roundtrip_us_p99"] = rtD.Tail
	r.layer["serve.handler_us_p50"] = hD.P50
	r.layer["serve.handler_us_p99"] = hD.Tail
	r.layer["serve.client_share"] = sumClient / sumRT
	r.layer["serve.queue_ms_p99"] = summarize(queue, 99).Tail
	r.layer["core.pair_compute_ms_p99"] = summarize(compute, 99).Tail
	r.layer["self.client_us"] = sumClient / float64(n)
	r.layer["self.handler_us"] = sumHandler / float64(n)
	r.layer["self.queue_us"] = sumQueue / float64(n)
	r.layer["self.compute_us"] = sumCompute / float64(n)
	r.layer["ring.retries"] = float64(d.retries)
	r.layer["cluster.fault_handler_ms_p50"] = median(t.fault)
	r.layer["cluster.gossip_posts"] = float64(len(t.gossip))
	r.layer["cluster.gossip_handler_ms_p50"] = median(t.gossip)
	r.notef("trace: %d of %d calls joined to handler spans; %d computed", n, len(d.calls), len(compute))
}

// tap is the benchmark's timing middleware around each daemon's
// Handler(). While on, it records the handler time of every plan request
// under the X-Bgq-Trace-Id the traced client stamped (summed over
// retries), and the duration of every fault and gossip request.
type tap struct {
	on     atomic.Bool
	mu     sync.Mutex
	plan   map[string]float64 // trace ID -> handler µs
	fault  []float64          // ms
	gossip []float64          // ms
}

func (t *tap) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		h.ServeHTTP(w, r)
		us := float64(time.Since(t0)) / 1e3
		t.mu.Lock()
		defer t.mu.Unlock()
		switch p := r.URL.Path; {
		case strings.HasPrefix(p, "/v1/plan/"):
			if id := r.Header.Get(serve.HeaderTraceID); id != "" {
				t.plan[id] += us
			}
		case p == "/v1/fault":
			t.fault = append(t.fault, us/1e3)
		case p == "/v1/gossip":
			t.gossip = append(t.gossip, us/1e3)
		}
	})
}
