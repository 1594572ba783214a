// Package serve turns the repo's planners into a long-running,
// concurrent planning service: the bgqd daemon answers PlanPair /
// PlanGroup / PlanAggregation / Simulate requests over HTTP/JSON on a
// TCP or Unix socket.
//
// Three mechanisms make it safe to put in front of heavy traffic
// (DESIGN.md §12):
//
//   - A worker-pool dispatcher with a bounded queue: each plan builds
//     and runs a private simulation engine, so admission control caps
//     both CPU and memory. When the queue is full the request is shed
//     with 429 + Retry-After instead of queueing without bound.
//   - A sharded plan cache keyed on (kind, shape, params-hash,
//     endpoints, bytes-bucket, canonical request) with singleflight
//     coalescing: N concurrent identical requests compute once. Sparse
//     request streams — a few hot (src, dst) couples dominating, the
//     Pattern-2 shape — hit the cache almost always.
//   - Fault-footprint invalidation wired to fault events: a POST
//     /v1/fault publishes the new fault set and bumps the epoch in one
//     critical section, recording which links changed. A cached pair
//     plan survives the event when its planner never looked at a
//     changed link; every other plan becomes invisible to later lookups
//     (the routing.Cache epoch discipline lifted to the service layer).
//
// Every request is instrumented through internal/obs; GET /metrics
// returns the registry snapshot as flat JSON.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"bgqflow/internal/cluster"
	"bgqflow/internal/obs"
	"bgqflow/internal/scenario"
)

// Config tunes the daemon.
type Config struct {
	// Workers is the plan-computation pool size; 0 means GOMAXPROCS.
	Workers int
	// QueueDepth bounds the dispatcher queue; admission beyond it sheds
	// with 429. 0 means 4x workers; the minimum is 1 (a zero-length
	// queue would make admission depend on worker scheduling).
	QueueDepth int
	// CacheShards is the plan-cache shard count; 0 means 16.
	CacheShards int
	// CacheEntriesPerShard bounds each shard; 0 means 4096.
	CacheEntriesPerShard int
	// RetryAfter is the backoff hint attached to shed responses; 0 means
	// 1s.
	RetryAfter time.Duration

	// MaxSessions caps concurrently running transfer sessions; past it
	// new sessions shed with 429. 0 means 4096.
	MaxSessions int
	// SessionIdle is the heartbeat deadline: a session with no subscriber
	// and no heartbeat for this long is canceled (running) or reaped
	// (done). 0 means 60s.
	SessionIdle time.Duration
	// ReplayEvents bounds each session's replay ring. 0 means 256.
	ReplayEvents int
	// BatchWindow, when positive, enables Träff-style message combining:
	// small same-pair transfer requests marked Batch that arrive within
	// one window coalesce into a single combined session. 0 disables.
	BatchWindow time.Duration
	// BatchMaxBytes is the per-request size ceiling for combining; larger
	// transfers always run alone. 0 means 256 KiB.
	BatchMaxBytes int64

	// TraceEvents, when positive, enables the wall-clock trace plane: a
	// bounded ring of that many spans/instants served by GET /v1/trace.
	// 0 disables tracing (the zero-cost default).
	TraceEvents int
	// StatsWindow sizes the rolling windows behind serve/window/* metrics
	// and SLO evaluation. 0 means 30s.
	StatsWindow time.Duration
	// SLOs are the objectives the daemon tracks (see obs.SLOSpec). Specs
	// must validate; New panics on a malformed spec (bgqd validates at
	// flag parse, so this only fires on programmer error).
	SLOs []obs.SLOSpec

	// ReplicaID, when non-empty, runs the daemon as one replica of a
	// bgqd cluster (DESIGN.md §17): fault events are stamped into a
	// gossiped epoch log instead of a private fault set, responses carry
	// X-Bgq-Replica / X-Bgq-Vector, and requests stamped with
	// X-Bgq-Min-Vector are rejected with 503 until this replica has
	// applied at least that vector. Empty means standalone (the legacy
	// single-daemon behavior, bit for bit).
	ReplicaID string
	// Peers are the other replicas' base addresses (same forms NewClient
	// accepts: "host:port", "http://...", "unix:///path").
	Peers []string
	// GossipInterval is the anti-entropy period between rounds. 0 means
	// 200ms.
	GossipInterval time.Duration
	// GossipSeed fixes gossip peer selection (deterministic tests).
	GossipSeed int64
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.CacheShards <= 0 {
		c.CacheShards = 16
	}
	if c.CacheEntriesPerShard <= 0 {
		c.CacheEntriesPerShard = 4096
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 4096
	}
	if c.SessionIdle <= 0 {
		c.SessionIdle = 60 * time.Second
	}
	if c.ReplayEvents <= 0 {
		c.ReplayEvents = 256
	}
	if c.BatchMaxBytes <= 0 {
		c.BatchMaxBytes = 256 << 10
	}
	if c.StatsWindow <= 0 {
		c.StatsWindow = 30 * time.Second
	}
	if c.GossipInterval <= 0 {
		c.GossipInterval = 200 * time.Millisecond
	}
	return c
}

// FaultEvent is the body of POST /v1/fault: link failures to add to the
// daemon's fault set, or Clear to reset it (a repair). Either way the
// plan-cache epoch is bumped; cached plans whose footprint misses every
// changed link stay valid.
type FaultEvent struct {
	Links []scenario.FailLink `json:"links,omitempty"`
	Clear bool                `json:"clear,omitempty"`
}

// Server is the planning service. Create with New, mount Handler on any
// http.Server (TCP or Unix listener), Close when done.
type Server struct {
	cfg      Config
	reg      *obs.Registry
	cache    *planCache
	disp     *dispatcher
	sessions *sessionMgr
	start    time.Time

	// Telemetry plane (telemetry.go). wall is nil when tracing is
	// disabled; every WallRecorder method is nil-safe, so call sites pay
	// one branch. The window metrics are pre-registered so the hot path
	// never takes the registry lock.
	wall         *obs.WallRecorder
	slo          *obs.SLOTracker
	sloStop      chan struct{}
	sloDone      chan struct{}
	wRequests    *obs.WindowCounter
	wShed        *obs.WindowCounter
	wResumeHit   *obs.WindowCounter
	wResumeTotal *obs.WindowCounter
	wLatency     *obs.WindowHistogram

	// clst is the cluster plane (cluster.go); nil on standalone daemons.
	clst *clusterPlane

	// mu guards faults and vec together: vec is the fault-epoch vector
	// the serve layer vouches for, and it must never run ahead of the
	// fault set published alongside it (the cross-replica staleness
	// check compares vec, then plans against faults).
	mu     sync.Mutex
	faults []scenario.FailLink
	vec    cluster.Vector
}

// New builds a Server with the given configuration.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		reg:   obs.NewRegistry(),
		cache: newPlanCache(cfg.CacheShards, cfg.CacheEntriesPerShard),
		disp:  newDispatcher(cfg.Workers, cfg.QueueDepth),
		start: time.Now(),
	}
	s.wRequests = s.reg.WindowCounter("serve/window/requests", cfg.StatsWindow)
	s.wShed = s.reg.WindowCounter("serve/window/shed", cfg.StatsWindow)
	s.wResumeHit = s.reg.WindowCounter("serve/window/resume_hits", cfg.StatsWindow)
	s.wResumeTotal = s.reg.WindowCounter("serve/window/resumes", cfg.StatsWindow)
	s.wLatency = s.reg.WindowHistogram("serve/window/plan_latency_ms", cfg.StatsWindow)
	if cfg.TraceEvents > 0 {
		s.wall = obs.NewWallRecorder(cfg.TraceEvents)
	}
	if len(cfg.SLOs) > 0 {
		tracker, err := obs.NewSLOTracker(s.reg, cfg.SLOs)
		if err != nil {
			panic(err)
		}
		s.slo = tracker
		s.sloStop = make(chan struct{})
		s.sloDone = make(chan struct{})
		interval := cfg.StatsWindow / 4
		if interval < 500*time.Millisecond {
			interval = 500 * time.Millisecond
		}
		go s.sloLoop(interval)
	}
	s.sessions = newSessionMgr(s)
	if cfg.ReplicaID != "" {
		s.clst = newClusterPlane(s)
	}
	return s
}

// Registry exposes the server's metrics registry (tests and embedders
// read counters from it directly).
func (s *Server) Registry() *obs.Registry { return s.reg }

// Epoch returns the current plan-cache invalidation epoch.
func (s *Server) Epoch() uint64 { return s.cache.Epoch() }

// Close force-stops the session layer (graceful exits call Drain first)
// and drains the worker pool. In-flight HTTP requests must have
// completed (http.Server.Shutdown before Close).
func (s *Server) Close() {
	if s.clst != nil {
		s.clst.stopLoop()
	}
	if s.sloStop != nil {
		close(s.sloStop)
		<-s.sloDone
	}
	s.sessions.shutdown()
	s.disp.close()
}

// snapshot reads the epoch and the fault set in one critical section;
// see the planCache type comment for why they must match.
func (s *Server) snapshot() (uint64, []scenario.FailLink) {
	epoch, faults, _ := s.snapshotCluster()
	return epoch, faults
}

// snapshotCluster additionally returns the fault-epoch vector, read in
// the same critical section as the fault set: if the vector dominates a
// client's minimum, the faults alongside it include every event that
// minimum names.
func (s *Server) snapshotCluster() (uint64, []scenario.FailLink, cluster.Vector) {
	s.mu.Lock()
	epoch := s.cache.Epoch()
	faults := append([]scenario.FailLink(nil), s.faults...)
	vec := s.vec.Clone()
	s.mu.Unlock()
	return epoch, faults, vec
}

// Handler returns the service's HTTP mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/plan/pair", s.handlePair)
	mux.HandleFunc("POST /v1/plan/group", s.handleGroup)
	mux.HandleFunc("POST /v1/plan/agg", s.handleAgg)
	mux.HandleFunc("POST /v1/simulate", s.handleSimulate)
	mux.HandleFunc("POST /v1/fault", s.handleFault)
	mux.HandleFunc("POST /v1/transfer", s.handleTransfer)
	mux.HandleFunc("GET /v1/transfer/{id}", s.handleTransferStatus)
	mux.HandleFunc("GET /v1/transfer/{id}/events", s.handleTransferEvents)
	mux.HandleFunc("POST /v1/transfer/{id}/ack", s.handleTransferAck)
	mux.HandleFunc("POST /v1/transfer/{id}/heartbeat", s.handleTransferHeartbeat)
	mux.HandleFunc("POST /v1/gossip", s.handleGossip)
	mux.HandleFunc("GET /v1/cluster", s.handleCluster)
	mux.HandleFunc("GET /v1/trace", s.handleTrace)
	mux.HandleFunc("GET /v1/slo", s.handleSLO)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// planEnvelope wraps every plan response. Plan carries the cacheable
// payload; the remaining fields describe how THIS request was served and
// are deliberately outside Plan so that byte-identity of plans holds
// across cache hits, coalesced waits, and fresh computations.
type planEnvelope struct {
	Plan      json.RawMessage `json:"plan,omitempty"`
	Epoch     uint64          `json:"epoch"`
	Cached    bool            `json:"cached,omitempty"`
	Coalesced bool            `json:"coalesced,omitempty"`
	Error     string          `json:"error,omitempty"`
	// Vector is the fault-epoch vector the response was served under
	// (clustered daemons only; see cluster.Vector.String for the form).
	Vector string `json:"vector,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// errPlanPanic marks a plan computation that panicked. The worker
// recovers it so one bad plan cannot take down the replica; the request
// gets a 500 and nothing is cached.
var errPlanPanic = errors.New("serve: plan computation panicked")

// planFunc computes one plan against a fault snapshot and returns it
// with its fault footprint (nil for plans valid at one epoch only).
type planFunc func(faults []scenario.FailLink) (any, []uint64, error)

// runPlan runs compute on a worker and encodes the plan, converting a
// panic into errPlanPanic.
func (s *Server) runPlan(compute planFunc, faults []scenario.FailLink) (b []byte, foot []uint64, err error) {
	defer func() {
		if p := recover(); p != nil {
			s.reg.Counter("serve/panics").Inc()
			b, foot, err = nil, nil, fmt.Errorf("%w: %v", errPlanPanic, p)
		}
	}()
	plan, foot, err := compute(faults)
	if err != nil {
		return nil, nil, err
	}
	b, err = json.Marshal(plan)
	return b, foot, err
}

// servePlan is the shared request path: admission, coalescing, caching,
// instrumentation. The request's trace (client-stamped or generated)
// tags the wall spans; queue and compute phase times go back to the
// client as X-Bgq-Queue-Ms / X-Bgq-Compute-Ms headers (0 unless this
// request computed the plan).
func (s *Server) servePlan(w http.ResponseWriter, r *http.Request, endpoint, key string, compute planFunc) {
	t0 := time.Now()
	trace := s.traceID(r)
	span := s.wall.SpanBegin(trace, "bgqd/plan", endpoint)
	s.reg.Counter("serve/requests").Inc()
	s.reg.Counter("serve/requests/" + endpoint).Inc()
	s.wRequests.Inc()
	epoch, faults, vec := s.snapshotCluster()
	var vecStr string
	if s.clst != nil {
		vecStr = vec.String()
		w.Header().Set(HeaderReplica, s.cfg.ReplicaID)
		w.Header().Set(HeaderVector, vecStr)
		// Cross-replica staleness check: a client that saw a fault event
		// acknowledged at vector V demands we have applied V. If gossip
		// has not delivered those events yet, serving would hand out a
		// pre-fault plan — reject instead; no Retry-After, so the client
		// returns on its own short backoff, by which time the eager
		// broadcast or the next anti-entropy round has caught us up.
		if !s.checkMinVector(w, r, epoch, vec) {
			s.wall.SpanAbort(span)
			return
		}
	}
	// Phase timestamps, written by the worker goroutine; the channel
	// receive inside the singleflight closure orders them before our
	// reads. They stay zero on hit/coalesced/shed outcomes.
	var tQueueDone, tComputeDone time.Time
	val, err, outcome := s.cache.Do(key, epoch, func() ([]byte, []uint64, error) {
		type result struct {
			b    []byte
			foot []uint64
			e    error
		}
		ch := make(chan result, 1)
		admitted := s.disp.trySubmit(func() {
			tQueueDone = time.Now()
			b, foot, err := s.runPlan(compute, faults)
			tComputeDone = time.Now()
			ch <- result{b, foot, err}
		})
		s.reg.Gauge("serve/queue_depth").Set(float64(s.disp.queued()))
		if !admitted {
			return nil, nil, ErrOverloaded
		}
		r := <-ch
		return r.b, r.foot, r.e
	})
	var queueMS, computeMS float64
	if outcome.computed() && !tQueueDone.IsZero() {
		queueMS = float64(tQueueDone.Sub(t0)) / 1e6
		computeMS = float64(tComputeDone.Sub(tQueueDone)) / 1e6
		s.wall.Span(trace, "bgqd/queue", endpoint+" queue", t0, tQueueDone)
		s.wall.Span(trace, "bgqd/compute", endpoint+" compute", tQueueDone, tComputeDone)
	}
	setMSHeader(w.Header(), HeaderQueueMS, queueMS)
	setMSHeader(w.Header(), HeaderComputeMS, computeMS)
	if trace != "" {
		w.Header().Set(HeaderTraceID, trace)
	}
	switch outcome {
	case outcomeRevalidated:
		s.reg.Counter("serve/cache_revalidated").Inc()
		s.reg.Counter("serve/cache_hits").Inc()
	case outcomeHit:
		s.reg.Counter("serve/cache_hits").Inc()
	case outcomeCoalesced:
		s.reg.Counter("serve/coalesced").Inc()
	case outcomeFootprintMiss:
		s.reg.Counter("serve/cache_footprint_misses").Inc()
	}
	if outcome.computed() && err == nil {
		s.reg.Counter("serve/plans_computed").Inc()
	}
	if err == ErrOverloaded {
		s.reg.Counter("serve/shed").Inc()
		s.wShed.Inc()
		s.wall.SpanAbort(span)
		secs := int(math.Ceil(s.cfg.RetryAfter.Seconds()))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		writeJSON(w, http.StatusTooManyRequests, planEnvelope{Epoch: epoch, Error: err.Error(), Vector: vecStr})
		return
	}
	if err != nil {
		s.reg.Counter("serve/errors").Inc()
		s.wall.SpanAbort(span)
		status := http.StatusBadRequest
		if errors.Is(err, errPlanPanic) {
			status = http.StatusInternalServerError
		}
		writeJSON(w, status, planEnvelope{Epoch: epoch, Error: err.Error(), Vector: vecStr})
		return
	}
	latencyMS := float64(time.Since(t0)) / 1e6
	s.reg.Histogram("serve/latency_ms/" + endpoint).Observe(latencyMS)
	s.wLatency.Observe(latencyMS)
	s.wall.SpanEnd(span)
	writeJSON(w, http.StatusOK, planEnvelope{
		Plan:      val,
		Epoch:     epoch,
		Cached:    outcome.served(),
		Coalesced: outcome == outcomeCoalesced,
		Vector:    vecStr,
	})
}

func decodeBody(w http.ResponseWriter, r *http.Request, reg *obs.Registry, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		reg.Counter("serve/errors").Inc()
		writeJSON(w, http.StatusBadRequest, planEnvelope{Error: fmt.Sprintf("serve: bad request body: %v", err)})
		return false
	}
	return true
}

func (s *Server) handlePair(w http.ResponseWriter, r *http.Request) {
	var req PairRequest
	if !decodeBody(w, r, s.reg, &req) {
		return
	}
	if err := req.Validate(); err != nil {
		s.reg.Counter("serve/errors").Inc()
		writeJSON(w, http.StatusBadRequest, planEnvelope{Error: err.Error()})
		return
	}
	s.servePlan(w, r, "pair", req.cacheKey(), func(faults []scenario.FailLink) (any, []uint64, error) {
		return computePair(req, faults)
	})
}

func (s *Server) handleGroup(w http.ResponseWriter, r *http.Request) {
	var req GroupRequest
	if !decodeBody(w, r, s.reg, &req) {
		return
	}
	if err := req.Validate(); err != nil {
		s.reg.Counter("serve/errors").Inc()
		writeJSON(w, http.StatusBadRequest, planEnvelope{Error: err.Error()})
		return
	}
	s.servePlan(w, r, "group", req.cacheKey(), func(faults []scenario.FailLink) (any, []uint64, error) {
		plan, err := ComputeGroup(req, faults)
		return plan, nil, err
	})
}

func (s *Server) handleAgg(w http.ResponseWriter, r *http.Request) {
	var req AggRequest
	if !decodeBody(w, r, s.reg, &req) {
		return
	}
	if err := req.Validate(); err != nil {
		s.reg.Counter("serve/errors").Inc()
		writeJSON(w, http.StatusBadRequest, planEnvelope{Error: err.Error()})
		return
	}
	s.servePlan(w, r, "agg", req.cacheKey(), func(faults []scenario.FailLink) (any, []uint64, error) {
		plan, err := ComputeAgg(req, faults)
		return plan, nil, err
	})
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var cfg scenario.Config
	if !decodeBody(w, r, s.reg, &cfg) {
		return
	}
	if err := cfg.Validate(); err != nil {
		s.reg.Counter("serve/errors").Inc()
		writeJSON(w, http.StatusBadRequest, planEnvelope{Error: err.Error()})
		return
	}
	// Canonicalize (Validate filled defaults) so equal scenarios hash
	// equal regardless of JSON field order or omitted defaults.
	canon, err := json.Marshal(cfg)
	if err != nil {
		s.reg.Counter("serve/errors").Inc()
		writeJSON(w, http.StatusBadRequest, planEnvelope{Error: err.Error()})
		return
	}
	s.servePlan(w, r, "sim", simCacheKey(cfg, canon), func(faults []scenario.FailLink) (any, []uint64, error) {
		res, err := ComputeSim(cfg, faults)
		return res, nil, err
	})
}

// handleFault ingests a fault event: publish the new fault set and
// advance the cache epoch with the changed links in one critical section
// (see planCache). Responds with the new epoch.
func (s *Server) handleFault(w http.ResponseWriter, r *http.Request) {
	var ev FaultEvent
	if !decodeBody(w, r, s.reg, &ev) {
		return
	}
	for _, fl := range ev.Links {
		if fl.Dir != 1 && fl.Dir != -1 {
			s.reg.Counter("serve/errors").Inc()
			writeJSON(w, http.StatusBadRequest, planEnvelope{Error: fmt.Sprintf("serve: fault dir %d must be +1 or -1", fl.Dir)})
			return
		}
		if fl.Node < 0 || fl.Dim < 0 {
			s.reg.Counter("serve/errors").Inc()
			writeJSON(w, http.StatusBadRequest, planEnvelope{Error: fmt.Sprintf("serve: bad fault link %+v", fl)})
			return
		}
	}
	if s.clst != nil {
		s.clst.handleFaultClustered(w, r, ev)
		return
	}
	s.mu.Lock()
	prev := s.faults
	var next []scenario.FailLink
	if !ev.Clear {
		next = append(next, prev...)
	}
	next = append(next, ev.Links...)
	s.faults = next
	epoch := s.cache.Advance(linkDelta(prev, next))
	n := len(next)
	s.mu.Unlock()
	s.reg.Counter("serve/fault_events").Inc()
	s.reg.Gauge("serve/fault_links").Set(float64(n))
	// Forward the event into running transfer sessions: each applies the
	// failure at its next safe point and streams a pushed-fault frame
	// (repairs — Clear — do not propagate; a session's engine cannot
	// un-fail a link mid-run).
	s.sessions.pushFaults(ev.Links, epoch)
	s.afterFault()
	writeJSON(w, http.StatusOK, planEnvelope{Epoch: epoch})
}

// faultVerifier, when set, runs after every fault event a Server
// applies. Tests install it (export_test.go) to re-plan every cached plan
// that survived the event and byte-compare it; production never sets it.
var faultVerifier atomic.Pointer[func(*Server)]

func (s *Server) afterFault() {
	if f := faultVerifier.Load(); f != nil {
		(*f)(s)
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// Refresh the point-in-time gauges, then snapshot.
	s.reg.Gauge("serve/queue_depth").Set(float64(s.disp.queued()))
	s.reg.Gauge("serve/cache_entries").Set(float64(s.cache.Len()))
	s.reg.Gauge("serve/epoch").Set(float64(s.cache.Epoch()))
	s.reg.Gauge("serve/uptime_seconds").Set(time.Since(s.start).Seconds())
	snap := s.reg.Snapshot()
	if r.URL.Query().Get("format") == "prom" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		snap.WritePrometheus(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	snap.WriteJSON(w)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
