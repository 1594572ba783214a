package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptrace"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bgqflow/internal/cluster"
	"bgqflow/internal/obs"
	"bgqflow/internal/scenario"
)

// Client talks to a bgqd daemon over TCP ("host:port" or
// "http://host:port") or a Unix socket ("unix:///path/to/bgqd.sock").
// It is safe for concurrent use; bgqload drives one Client from many
// goroutines.
type Client struct {
	base    string
	hc      *http.Client
	retry   RetryPolicy
	tracer  *obs.WallRecorder
	metrics *obs.Registry
	// vec is the fault-epoch vector this client demands every plan
	// reflect (read-your-writes across replicas): fault responses merge
	// into it and plan, simulate and fault posts stamp it as
	// X-Bgq-Min-Vector. A RingClient hands one store to all of its
	// per-replica clients.
	vec *minVector
}

// minVector is a min-vector store, shared by pointer.
type minVector struct {
	mu sync.Mutex
	v  cluster.Vector
}

func (m *minVector) String() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.v.String()
}

func (m *minVector) merge(o cluster.Vector) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.v == nil {
		m.v = cluster.Vector{}
	}
	m.v.Merge(o)
}

// RetryPolicy governs how the client reacts to shed (429) and
// unavailable (503) responses — and, with RetryConn, transport errors
// while a daemon restarts. Waits honor the server's Retry-After hint,
// grow exponentially across consecutive failures, are capped at
// MaxBackoff, and carry ±Jitter so a shed herd does not return in
// lockstep.
type RetryPolicy struct {
	// MaxAttempts bounds consecutive attempts; 0 means unlimited (the
	// context deadline is the only bound).
	MaxAttempts int
	// BaseBackoff is the first wait; it doubles per consecutive failure.
	// 0 means 50ms.
	BaseBackoff time.Duration
	// MaxBackoff caps the wait, including server Retry-After hints. 0
	// means 2s.
	MaxBackoff time.Duration
	// Jitter spreads each wait by ±Jitter (e.g. 0.25 = ±25%).
	Jitter float64
	// RetryConn also retries transport-level errors (connection refused
	// while a daemon restarts), not just 429/503 responses.
	RetryConn bool
	// NoShedRetry surfaces 429 responses immediately while 503s still
	// back off and retry. Load generators driving a cluster use it:
	// against a clustered daemon a 503 means "replica behind the
	// demanded fault vector", which resolves by waiting out the gossip
	// window — not a shed — so retrying it keeps shed accounting exact
	// without turning staleness windows into spurious 5xx counts.
	NoShedRetry bool
}

// DefaultRetryPolicy is the interactive operating point: a handful of
// attempts with capped jittered exponential backoff.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 5, BaseBackoff: 50 * time.Millisecond, MaxBackoff: 2 * time.Second, Jitter: 0.25}
}

// NoRetryPolicy disables client-side retries: every shed surfaces to the
// caller. Load generators use it so shed accounting stays exact.
func NoRetryPolicy() RetryPolicy { return RetryPolicy{MaxAttempts: 1} }

// backoff computes the wait before retry number attempt (0-based),
// honoring a server Retry-After hint when it is longer than the
// exponential schedule, capping at MaxBackoff, then jittering.
func (p RetryPolicy) backoff(attempt int, hint time.Duration) time.Duration {
	base := p.BaseBackoff
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	maxB := p.MaxBackoff
	if maxB <= 0 {
		maxB = 2 * time.Second
	}
	d := base
	for i := 0; i < attempt && d < maxB; i++ {
		d *= 2
	}
	if hint > d {
		d = hint
	}
	if d > maxB {
		d = maxB
	}
	if p.Jitter > 0 {
		d = time.Duration(float64(d) * (1 + p.Jitter*(2*rand.Float64()-1)))
	}
	if d < 0 {
		d = 0
	}
	return d
}

// sleep waits the backoff for attempt, or returns early with the
// context's error.
func (p RetryPolicy) sleep(ctx context.Context, attempt int, hint time.Duration) error {
	t := time.NewTimer(p.backoff(attempt, hint))
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// errAttempts reports a spent MaxAttempts budget.
var errAttempts = errors.New("serve: retry attempts exhausted")

// step spends retry number attempt (0-based): errAttempts when the
// budget is spent, else the backoff wait (or the context's error).
func (p RetryPolicy) step(ctx context.Context, attempt int, hint time.Duration) error {
	if p.MaxAttempts > 0 && attempt+1 >= p.MaxAttempts {
		return errAttempts
	}
	return p.sleep(ctx, attempt, hint)
}

// NewClient builds a client with the default retry policy for a daemon
// address: TCP ("host:port", "http://...") or a unix socket
// ("unix:///path").
func NewClient(addr string) (*Client, error) {
	c := &Client{base: "http://bgqd", hc: &http.Client{}, retry: DefaultRetryPolicy(), vec: &minVector{}}
	if addr == "" {
		return nil, fmt.Errorf("serve: empty address")
	}
	if path, ok := strings.CutPrefix(addr, "unix://"); ok {
		if path == "" {
			return nil, fmt.Errorf("serve: empty unix socket path")
		}
		// The base host is a placeholder; the transport always dials the
		// socket.
		c.hc.Transport = &http.Transport{
			DialContext: func(ctx context.Context, _, _ string) (net.Conn, error) {
				var d net.Dialer
				return d.DialContext(ctx, "unix", path)
			},
		}
		return c, nil
	}
	if !strings.HasPrefix(addr, "http://") && !strings.HasPrefix(addr, "https://") {
		addr = "http://" + addr
	}
	c.base = strings.TrimRight(addr, "/")
	if _, err := url.Parse(c.base); err != nil {
		return nil, fmt.Errorf("serve: bad address: %w", err)
	}
	return c, nil
}

// SetRetryPolicy replaces the client's retry policy. Not safe to call
// concurrently with requests; configure before use.
func (c *Client) SetRetryPolicy(p RetryPolicy) { c.retry = p }

// SetTracer attaches a client-side wall recorder: every request is
// stamped with X-Bgq-Trace-Id/X-Bgq-Span-Id and recorded as a client
// span, so a merged trace shows the client attempt above the daemon's
// queue/compute spans under one trace ID. nil disables (the default).
// Configure before use.
func (c *Client) SetTracer(t *obs.WallRecorder) { c.tracer = t }

// Tracer returns the recorder installed by SetTracer (nil when tracing
// is off). Export it with WriteChromeTrace and merge with the daemon's
// TraceJSON via obs.MergeChromeTraces for the combined timeline.
func (c *Client) Tracer() *obs.WallRecorder { return c.tracer }

// SetMetrics attaches a metrics registry: protocol anomalies the client
// papers over (like malformed timing headers) are counted there instead
// of vanishing. nil disables (the default). Configure before use.
func (c *Client) SetMetrics(r *obs.Registry) { c.metrics = r }

// BaseURL reports the daemon base URL the client talks to.
func (c *Client) BaseURL() string { return c.base }

// MinVector returns the fault-epoch vector this client currently
// demands of every plan ("" until a Fault response establishes one).
func (c *Client) MinVector() string { return c.vec.String() }

// MergeMinVector raises the client's demanded vector pointwise by v
// (canonical "origin:seq,..." form). Malformed input is ignored — the
// demand only ever grows from server-provided vectors.
func (c *Client) MergeMinVector(v string) {
	if v == "" {
		return
	}
	parsed, err := cluster.ParseVector(v)
	if err != nil {
		if c.metrics != nil {
			c.metrics.Counter("serve/client/bad_vector").Inc()
		}
		return
	}
	c.vec.merge(parsed)
}

// PlanResult is one plan response as the client saw it.
type PlanResult struct {
	// Status is the HTTP status code (200 = plan served, 429 = shed).
	Status int
	// Plan is the raw plan JSON (unmarshal into PairPlan / GroupPlan /
	// AggPlan / SimResult). Empty unless Status is 200.
	Plan json.RawMessage
	// Epoch is the fault epoch the plan was served under.
	Epoch uint64
	// Cached and Coalesced say how the server satisfied the request.
	Cached    bool
	Coalesced bool
	// RetryAfter is the server's backoff hint on shed (429) responses.
	RetryAfter time.Duration
	// Err is the server-side error message on non-200 responses.
	Err string
	// Retries counts client-side retry waits spent on this request.
	Retries int
	// Trace is the request's trace ID (client-stamped when a tracer is
	// set, else the server's echo when tracing is enabled there).
	Trace string
	// Replica is the serving replica's ID (X-Bgq-Replica; "" from a
	// standalone daemon).
	Replica string
	// Vector is the fault-epoch vector the response was served under
	// ("" from a standalone daemon).
	Vector string
	// Per-phase latency breakdown in milliseconds. ConnectMS is the TCP
	// dial time (0 on a pooled connection); QueueMS and ComputeMS are
	// the server-reported dispatcher and planner phases (0 unless this
	// request computed the plan); StreamMS is the response decode time.
	ConnectMS float64
	QueueMS   float64
	ComputeMS float64
	StreamMS  float64
}

// Shed reports whether the request was load-shed (429).
func (r PlanResult) Shed() bool { return r.Status == http.StatusTooManyRequests }

// OK reports whether a plan was served.
func (r PlanResult) OK() bool { return r.Status == http.StatusOK }

// post sends one JSON request through the retry policy: 429/503
// responses (and, with RetryConn, transport errors) back off and retry;
// when attempts run out the last shed response is returned as-is. A
// non-2xx status is NOT a Go error — load tests need to count shed and
// rejected requests without aborting; transport and decode failures are
// errors.
func (c *Client) post(ctx context.Context, path string, body any) (PlanResult, error) {
	pol := c.retry
	// One trace for the logical request; retries share it, so a traced
	// shed-then-served pair reads as one story in the merged trace.
	var trace string
	if c.tracer != nil {
		trace = obs.NewTraceID()
	}
	for attempt := 0; ; attempt++ {
		res, err := c.postOnce(ctx, path, body, trace)
		res.Retries = attempt
		retryable := err == nil && (res.Status == http.StatusServiceUnavailable ||
			(res.Status == http.StatusTooManyRequests && !pol.NoShedRetry))
		if err != nil && pol.RetryConn && ctx.Err() == nil {
			retryable = true
		}
		if !retryable || pol.step(ctx, attempt, res.RetryAfter) != nil {
			return res, err
		}
	}
}

// msHeader parses a millisecond phase header. Absent reads as 0.
// Malformed, non-finite, or negative values also read as 0 — a phase
// duration cannot be negative, and NaN/Inf would poison every sum the
// breakdown feeds — but each one is counted on the
// serve/client/bad_ms_header metric so a misbehaving daemon or proxy is
// visible rather than silently folded into the timing.
func (c *Client) msHeader(h http.Header, key string) float64 {
	raw := h.Get(key)
	if raw == "" {
		return 0
	}
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		if c.metrics != nil {
			c.metrics.Counter("serve/client/bad_ms_header").Inc()
		}
		return 0
	}
	return v
}

// retryAfterHint parses a Retry-After header value into a wait hint.
// Integer delay-seconds yield that duration, with negatives clamped to
// zero (retry immediately — a negative wait is meaningless). Anything
// else returns ok=false, the HTTP-date form included: converting a date
// to a wait needs a clock, so callers fall back to their backoff
// schedule rather than misreading the date as delay-seconds.
func retryAfterHint(ra string) (time.Duration, bool) {
	if ra == "" {
		return 0, false
	}
	if secs, err := strconv.Atoi(ra); err == nil {
		if secs < 0 {
			return 0, true
		}
		return time.Duration(secs) * time.Second, true
	}
	return 0, false
}

// postOnce is a single request/response cycle. trace, when non-empty,
// is stamped on the request (with a fresh per-attempt span ID) and the
// attempt is recorded as a client span.
func (c *Client) postOnce(ctx context.Context, path string, body any, trace string) (PlanResult, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return PlanResult{}, err
	}
	// Connect timing via httptrace: 0 on a pooled connection, the dial
	// cost on a fresh one — the "connect" phase of the breakdown. The
	// transport may run these hooks on a background dial goroutine (a
	// speculative pool dial can even outlive Do), so both fields are
	// atomics: nanosecond timestamps, read once after Do returns.
	var connStart, connDur atomic.Int64
	ct := &httptrace.ClientTrace{
		ConnectStart: func(string, string) { connStart.Store(time.Now().UnixNano()) },
		ConnectDone: func(_, _ string, _ error) {
			if s := connStart.Load(); s != 0 {
				connDur.Store(time.Now().UnixNano() - s)
			}
		},
	}
	t0 := time.Now()
	resp, err := c.send(httptrace.WithClientTrace(ctx, ct), http.MethodPost, path, raw, trace, true)
	if err != nil {
		return PlanResult{}, err
	}
	defer resp.Body.Close()
	tBody := time.Now()
	var env planEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		return PlanResult{}, fmt.Errorf("serve: decode %s response (status %d): %w", path, resp.StatusCode, err)
	}
	out := PlanResult{
		Status:    resp.StatusCode,
		Plan:      env.Plan,
		Epoch:     env.Epoch,
		Cached:    env.Cached,
		Coalesced: env.Coalesced,
		Err:       env.Error,
		Trace:     trace,
		Replica:   resp.Header.Get(HeaderReplica),
		Vector:    env.Vector,
		ConnectMS: float64(connDur.Load()) / 1e6,
		QueueMS:   c.msHeader(resp.Header, HeaderQueueMS),
		ComputeMS: c.msHeader(resp.Header, HeaderComputeMS),
		StreamMS:  float64(time.Since(tBody)) / 1e6,
	}
	if out.Trace == "" {
		out.Trace = resp.Header.Get(HeaderTraceID)
	}
	out.RetryAfter, _ = retryAfterHint(resp.Header.Get("Retry-After"))
	c.tracer.Span(trace, "client/plan", path, t0, time.Now())
	return out, nil
}

// PlanPair requests a point-to-point plan.
func (c *Client) PlanPair(ctx context.Context, req PairRequest) (PlanResult, error) {
	return c.post(ctx, "/v1/plan/pair", req)
}

// PlanGroup requests a group-coupling plan.
func (c *Client) PlanGroup(ctx context.Context, req GroupRequest) (PlanResult, error) {
	return c.post(ctx, "/v1/plan/group", req)
}

// PlanAgg requests an I/O aggregation plan.
func (c *Client) PlanAgg(ctx context.Context, req AggRequest) (PlanResult, error) {
	return c.post(ctx, "/v1/plan/agg", req)
}

// Simulate runs a full declarative scenario.
func (c *Client) Simulate(ctx context.Context, cfg scenario.Config) (PlanResult, error) {
	return c.post(ctx, "/v1/simulate", cfg)
}

// Fault posts a fault event and returns the new epoch. Against a
// clustered daemon the acknowledged fault-epoch vector is merged into
// the client's min vector, so every subsequent request — to ANY replica
// — demands a fault set that includes this event (read-your-writes).
func (c *Client) Fault(ctx context.Context, ev FaultEvent) (uint64, error) {
	res, err := c.post(ctx, "/v1/fault", ev)
	if err != nil {
		return 0, err
	}
	if res.Status != http.StatusOK {
		return 0, fmt.Errorf("serve: fault event rejected (status %d): %s", res.Status, res.Err)
	}
	c.MergeMinVector(res.Vector)
	return res.Epoch, nil
}

// send is the client's one HTTP exchange: every request the client
// layer makes — plan, fault, session, telemetry and gossip calls — is
// built and sent here. A body (always JSON) sets Content-Type; a
// non-empty trace is stamped with a fresh per-attempt span ID; stampVec
// adds the min-vector demand, which only plan, simulate and fault posts
// carry.
func (c *Client) send(ctx context.Context, method, path string, body []byte, trace string, stampVec bool) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if trace != "" {
		req.Header.Set(HeaderTraceID, trace)
		req.Header.Set(HeaderSpanID, obs.NewTraceID())
	}
	if stampVec {
		if mv := c.vec.String(); mv != "" {
			req.Header.Set(HeaderMinVector, mv)
		}
	}
	return c.hc.Do(req)
}

// fetch sends one untraced request and hands a 200 response's body to
// read. Any other status is an error carrying the first 512 bytes of
// the body.
func fetch[T any](ctx context.Context, c *Client, method, path string, body []byte, read func(io.Reader) (T, error)) (T, error) {
	var zero T
	resp, err := c.send(ctx, method, path, body, "", false)
	if err != nil {
		return zero, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return zero, fmt.Errorf("serve: %s status %d: %s", path, resp.StatusCode, b)
	}
	return read(resp.Body)
}

func decodeJSON[T any](r io.Reader) (T, error) {
	var v T
	err := json.NewDecoder(r).Decode(&v)
	return v, err
}

// Metrics fetches the /metrics registry snapshot.
func (c *Client) Metrics(ctx context.Context) (obs.MetricsSnapshot, error) {
	return fetch(ctx, c, http.MethodGet, "/metrics", nil, obs.ReadMetricsSnapshot)
}

// SLO fetches the daemon's current SLO verdicts (GET /v1/slo).
func (c *Client) SLO(ctx context.Context) (obs.SLOSnapshot, error) {
	return fetch(ctx, c, http.MethodGet, "/v1/slo", nil, obs.ReadSLOSnapshot)
}

// TraceJSON fetches the daemon's Perfetto trace snapshot (GET
// /v1/trace) as raw bytes, ready for obs.MergeChromeTraces or a file.
func (c *Client) TraceJSON(ctx context.Context) ([]byte, error) {
	return fetch(ctx, c, http.MethodGet, "/v1/trace", nil, io.ReadAll)
}

// Health checks the daemon's /healthz endpoint.
func (c *Client) Health(ctx context.Context) error {
	_, err := fetch(ctx, c, http.MethodGet, "/healthz", nil, io.ReadAll)
	return err
}
