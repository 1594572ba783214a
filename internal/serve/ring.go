package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"bgqflow/internal/cluster"
	"bgqflow/internal/obs"
	"bgqflow/internal/scenario"
)

// RingClient is the client side of the bgqd cluster (DESIGN.md §17): it
// routes every request to the replica owning its key on a
// consistent-hash ring, fails over down the successor ladder when a
// replica dies, and threads one shared min-vector through all
// per-replica clients so a fault acknowledged anywhere is reflected in
// every subsequent plan (read-your-writes across the fleet).
//
// Plans route by their cache key — the same couple always lands on the
// same replica, so the fleet's aggregate cache behaves like one big
// sharded cache. Transfer sessions route by session ID; on failover the
// idempotent re-POST re-arms the session on the successor without
// duplicating it. Fault posts rotate across replicas, exercising
// origination everywhere.
type RingClient struct {
	ring    *cluster.Ring
	reg     *obs.Registry
	retry   RetryPolicy
	clients map[string]*Client // by member ID
	vec     *minVector         // shared by every per-replica client

	mu       sync.Mutex
	down     map[string]time.Time // member ID -> cooldown expiry
	faultRR  int
	cooldown time.Duration
}

// NewRingClient builds a ring client over the given members. Every
// member address must parse; the ring uses default vnodes so routing
// matches every other client built from the same member list.
func NewRingClient(members []cluster.Member) (*RingClient, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("serve: ring client needs at least one member")
	}
	rc := &RingClient{
		ring:     cluster.NewRing(0, members...),
		reg:      obs.NewRegistry(),
		retry:    DefaultRetryPolicy(),
		clients:  make(map[string]*Client, len(members)),
		vec:      &minVector{},
		down:     make(map[string]time.Time),
		cooldown: 2 * time.Second,
	}
	for _, m := range members {
		c, err := NewClient(m.Addr)
		if err != nil {
			return nil, fmt.Errorf("serve: ring member %s: %w", m.ID, err)
		}
		c.vec = rc.vec
		c.SetMetrics(rc.reg)
		rc.clients[m.ID] = c
	}
	return rc, nil
}

// SetRetryPolicy sets the per-replica retry policy (429/503 responses
// retry against the SAME replica — a stale 503 resolves by waiting for
// gossip, not by moving). Transport errors always fail over to the next
// successor regardless of policy. Configure before use.
func (rc *RingClient) SetRetryPolicy(p RetryPolicy) {
	// RetryConn stays off per replica: a refused connection means the
	// replica is gone and the ladder handles it.
	p.RetryConn = false
	rc.retry = p
	for _, c := range rc.clients {
		c.SetRetryPolicy(p)
	}
}

// SetTracer attaches one wall recorder to every per-replica client.
// Configure before use.
func (rc *RingClient) SetTracer(t *obs.WallRecorder) {
	for _, c := range rc.clients {
		c.SetTracer(t)
	}
}

// Registry exposes the ring client's metrics: serve/ring/failovers,
// serve/ring/session_reroutes, serve/ring/stale_served,
// serve/ring/all_down, plus the per-replica client anomaly counters.
func (rc *RingClient) Registry() *obs.Registry { return rc.reg }

// Client returns the underlying per-replica client (nil for unknown
// IDs) — tests and per-replica probes use it directly.
func (rc *RingClient) Client(id string) *Client { return rc.clients[id] }

// MinVector returns the fault-epoch vector the ring client currently
// demands of every plan.
func (rc *RingClient) MinVector() string { return rc.vec.String() }

// StaleServed reports how many responses arrived with a vector that did
// NOT dominate the demanded min vector — the chaos-soak gate; the
// server-side check makes this impossible, so any nonzero count is a
// staleness bug.
func (rc *RingClient) StaleServed() int64 {
	return rc.reg.Counter("serve/ring/stale_served").Value()
}

// markDown starts a cooldown for a member that failed at the transport
// level; ladder walks move it to the back until the cooldown expires.
func (rc *RingClient) markDown(id string) {
	rc.mu.Lock()
	rc.down[id] = time.Now().Add(rc.cooldown)
	rc.mu.Unlock()
}

func (rc *RingClient) isDown(id string) bool {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	until, ok := rc.down[id]
	if !ok {
		return false
	}
	if time.Now().After(until) {
		delete(rc.down, id)
		return false
	}
	return true
}

// walk is the one failover ladder. It tries call on each member of
// order (which it reorders in place) with cooled-down members moved to
// the back — never dropped, so if everyone is marked down the walk
// still tries them all. A failed rung is marked down and the walk moves
// on, counting each move on the reroutes counter when one is named. A
// cancelled context ends the walk with the rung's error; failing on
// every member counts serve/ring/all_down.
func (rc *RingClient) walk(ctx context.Context, order []cluster.Member, reroutes, what string, call func(*Client) error) error {
	n := 0
	var cooled []cluster.Member
	for _, m := range order {
		if rc.isDown(m.ID) {
			cooled = append(cooled, m)
		} else {
			order[n] = m
			n++
		}
	}
	var err error
	for i, m := range append(order[:n], cooled...) {
		if i > 0 && reroutes != "" {
			rc.reg.Counter(reroutes).Inc()
		}
		if err = call(rc.clients[m.ID]); err == nil || ctx.Err() != nil {
			return err
		}
		rc.markDown(m.ID)
	}
	rc.reg.Counter("serve/ring/all_down").Inc()
	return fmt.Errorf("serve: %s failed on every ring member: %w", what, err)
}

// plan walks the key's successor ladder: each rung gets the full
// per-replica retry policy (429 shed and 503 stale retry in place); a
// transport error fails over to the successor. The response vector is
// checked against the min vector demanded at send time — a violation
// counts on serve/ring/stale_served.
func (rc *RingClient) plan(ctx context.Context, key string, call func(*Client) (PlanResult, error)) (PlanResult, error) {
	demanded := rc.vec.String()
	var res PlanResult
	err := rc.walk(ctx, rc.ring.Successors(key, rc.ring.Len()), "serve/ring/failovers", "plan", func(c *Client) (err error) {
		res, err = call(c)
		return err
	})
	if err != nil {
		return PlanResult{}, err
	}
	if res.OK() && demanded != "" {
		rc.checkServedVector(res.Vector, demanded)
	}
	return res, nil
}

// checkServedVector verifies a served plan's vector dominates what the
// client demanded. The server enforces this; the client re-checks so a
// staleness bug is caught at the oracle, not trusted.
func (rc *RingClient) checkServedVector(served, demanded string) {
	want, err := cluster.ParseVector(demanded)
	if err != nil {
		return
	}
	got, err := cluster.ParseVector(served)
	if err != nil || !got.Dominates(want) {
		rc.reg.Counter("serve/ring/stale_served").Inc()
	}
}

// PlanPair requests a point-to-point plan from the replica owning it.
func (rc *RingClient) PlanPair(ctx context.Context, req PairRequest) (PlanResult, error) {
	return rc.plan(ctx, req.cacheKey(), func(c *Client) (PlanResult, error) {
		return c.PlanPair(ctx, req)
	})
}

// PlanGroup requests a group-coupling plan from the replica owning it.
func (rc *RingClient) PlanGroup(ctx context.Context, req GroupRequest) (PlanResult, error) {
	return rc.plan(ctx, req.cacheKey(), func(c *Client) (PlanResult, error) {
		return c.PlanGroup(ctx, req)
	})
}

// PlanAgg requests an I/O aggregation plan from the replica owning it.
func (rc *RingClient) PlanAgg(ctx context.Context, req AggRequest) (PlanResult, error) {
	return rc.plan(ctx, req.cacheKey(), func(c *Client) (PlanResult, error) {
		return c.PlanAgg(ctx, req)
	})
}

// Simulate runs a declarative scenario on the replica owning it.
func (rc *RingClient) Simulate(ctx context.Context, cfg scenario.Config) (PlanResult, error) {
	canon, err := json.Marshal(cfg)
	if err != nil {
		return PlanResult{}, err
	}
	return rc.plan(ctx, simCacheKey(cfg, canon), func(c *Client) (PlanResult, error) {
		return c.Simulate(ctx, cfg)
	})
}

// Fault posts a fault event to one replica — starting one member
// further round the membership on each call, so origination (and
// therefore gossip dissemination) is exercised everywhere — and merges
// the acknowledged vector into the shared min vector. Any error,
// rejection included, fails over to the next member. Returns the
// originating replica's new epoch.
func (rc *RingClient) Fault(ctx context.Context, ev FaultEvent) (uint64, error) {
	members := rc.ring.Members()
	rc.mu.Lock()
	start := rc.faultRR % len(members)
	rc.faultRR++
	rc.mu.Unlock()
	order := append(append(make([]cluster.Member, 0, len(members)), members[start:]...), members[:start]...)
	var epoch uint64
	err := rc.walk(ctx, order, "", "fault event", func(c *Client) (err error) {
		epoch, err = c.Fault(ctx, ev)
		return err
	})
	return epoch, err
}

// Transfer runs one resilient transfer session, routed by session ID.
// If the owning replica dies mid-session, the next successor gets a
// re-POST of the same idempotent ID — the session re-arms there exactly
// once; the dead replica's partial run never reported, so the caller
// still sees exactly one terminal report.
func (rc *RingClient) Transfer(ctx context.Context, req TransferRequest, opts TransferOpts) (TransferOutcome, error) {
	if req.ID == "" {
		req.ID = randomSessionID()
	}
	// Per-rung attempts must be bounded, or a dead owner would absorb
	// the whole budget before the ladder advances.
	if opts.Backoff == (RetryPolicy{}) {
		opts.Backoff = rc.retry
	}
	if opts.Backoff.MaxAttempts == 0 || opts.Backoff.MaxAttempts > 4 {
		opts.Backoff.MaxAttempts = 4
	}
	out := TransferOutcome{SessionID: req.ID}
	err := rc.walk(ctx, rc.ring.Successors("session|"+req.ID, rc.ring.Len()), "serve/ring/session_reroutes", "transfer "+req.ID,
		func(c *Client) error {
			o, err := c.Transfer(ctx, req, opts)
			// Resumes and restarts add up across rungs; everything else,
			// the terminal report included, is the last rung's.
			o.Resumes += out.Resumes
			o.Restarts += out.Restarts
			if o.Trace == "" {
				o.Trace = out.Trace
			}
			out = o
			return err
		})
	return out, err
}

// Health probes every member; it returns the IDs that answered.
func (rc *RingClient) Health(ctx context.Context) []string {
	var up []string
	for _, m := range rc.ring.Members() {
		if rc.clients[m.ID].Health(ctx) == nil {
			up = append(up, m.ID)
		}
	}
	return up
}

// MetricsAll fetches every live member's /metrics snapshot, keyed by
// replica ID (dead members are skipped).
func (rc *RingClient) MetricsAll(ctx context.Context) map[string]obs.MetricsSnapshot {
	out := make(map[string]obs.MetricsSnapshot)
	for _, m := range rc.ring.Members() {
		if snap, err := rc.clients[m.ID].Metrics(ctx); err == nil {
			out[m.ID] = snap
		}
	}
	return out
}

// ClusterStatusAll fetches every live member's GET /v1/cluster view,
// keyed by replica ID.
func (rc *RingClient) ClusterStatusAll(ctx context.Context) map[string]ClusterStatus {
	out := make(map[string]ClusterStatus)
	for _, m := range rc.ring.Members() {
		if st, err := fetch(ctx, rc.clients[m.ID], http.MethodGet, "/v1/cluster", nil, decodeJSON[ClusterStatus]); err == nil {
			out[m.ID] = st
		}
	}
	return out
}
