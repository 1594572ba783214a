package serve

// Wire pin for the client layer: every Client method, RingClient's
// cluster-status sweep, and the gossip transport are driven against a
// recording handler, and the method, request URI, Content-Type and
// every X-Bgq-* header of each request they send are compared with a
// fixed table — with the client tracer on and off, and with the
// min-vector demand empty and set. Any refactor of the request path
// must leave this table unchanged.

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"bgqflow/internal/cluster"
	"bgqflow/internal/obs"
	"bgqflow/internal/scenario"
)

// wireRecorder is a fake daemon that logs one line per request and
// answers each endpoint with the smallest body the client accepts.
type wireRecorder struct {
	mu    sync.Mutex
	lines []string
}

func (wr *wireRecorder) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	io.Copy(io.Discard, r.Body)
	var hs []string
	for name, vals := range r.Header {
		if !strings.HasPrefix(name, "X-Bgq-") {
			continue
		}
		v := vals[0]
		if name == HeaderTraceID || name == HeaderSpanID {
			v = "*" // random per request
		}
		hs = append(hs, name+"="+v)
	}
	sort.Strings(hs)
	ct := r.Header.Get("Content-Type")
	if ct == "" {
		ct = "-"
	}
	line := strings.Join(append([]string{r.Method, r.URL.RequestURI(), ct}, hs...), " ")
	wr.mu.Lock()
	wr.lines = append(wr.lines, line)
	wr.mu.Unlock()

	w.Header().Set("Content-Type", "application/json")
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/v1/transfer":
		// One buffered frame, then end of stream: with DropEvery=1 and
		// AckEvery=1 the client acks it, drops, and resumes.
		io.WriteString(w, `{"type":"hello"}`+"\n"+`{"seq":1,"type":"progress"}`+"\n")
	case strings.HasSuffix(r.URL.Path, "/events"):
		io.WriteString(w, `{"type":"hello"}`+"\n"+`{"seq":2,"type":"report","report":{}}`+"\n")
	case strings.HasPrefix(r.URL.Path, "/v1/plan/") || r.URL.Path == "/v1/simulate" || r.URL.Path == "/v1/fault":
		io.WriteString(w, `{"plan":{},"epoch":1}`)
	default:
		io.WriteString(w, `{}`)
	}
}

func (wr *wireRecorder) take() []string {
	wr.mu.Lock()
	defer wr.mu.Unlock()
	out := wr.lines
	wr.lines = nil
	return out
}

// wireCase is one client call and the requests it must send. In want,
// the marker "vec" stands for X-Bgq-Min-Vector (present only when a
// demand is set) and "trace" for X-Bgq-Span-Id + X-Bgq-Trace-Id
// (present only with a tracer).
type wireCase struct {
	name string
	run  func(ctx context.Context, c *Client) error
	want []string
}

func wireCases() []wireCase {
	plan := func(f func(ctx context.Context, c *Client) (PlanResult, error)) func(context.Context, *Client) error {
		return func(ctx context.Context, c *Client) error {
			res, err := f(ctx, c)
			if err == nil && !res.OK() {
				err = fmt.Errorf("status %d", res.Status)
			}
			return err
		}
	}
	return []wireCase{
		{"PlanPair", plan(func(ctx context.Context, c *Client) (PlanResult, error) {
			return c.PlanPair(ctx, PairRequest{Shape: "2x2x4x4x2", Src: 0, Dst: 97, Bytes: 1 << 20})
		}), []string{"POST /v1/plan/pair application/json vec trace"}},
		{"PlanGroup", plan(func(ctx context.Context, c *Client) (PlanResult, error) {
			return c.PlanGroup(ctx, GroupRequest{})
		}), []string{"POST /v1/plan/group application/json vec trace"}},
		{"PlanAgg", plan(func(ctx context.Context, c *Client) (PlanResult, error) {
			return c.PlanAgg(ctx, AggRequest{})
		}), []string{"POST /v1/plan/agg application/json vec trace"}},
		{"Simulate", plan(func(ctx context.Context, c *Client) (PlanResult, error) {
			return c.Simulate(ctx, scenario.Config{})
		}), []string{"POST /v1/simulate application/json vec trace"}},
		{"Fault", func(ctx context.Context, c *Client) error {
			_, err := c.Fault(ctx, FaultEvent{Links: []scenario.FailLink{{Node: 1, Dim: 0, Dir: 1}}})
			return err
		}, []string{"POST /v1/fault application/json vec trace"}},
		{"Transfer", func(ctx context.Context, c *Client) error {
			out, err := c.Transfer(ctx, TransferRequest{ID: "s-wire", Shape: "2x2x4x4x2", Src: 0, Dst: 97, Bytes: 1 << 20},
				TransferOpts{DropEvery: 1, AckEvery: 1})
			if err == nil && out.Resumes != 1 {
				err = fmt.Errorf("resumes = %d, want 1", out.Resumes)
			}
			return err
		}, []string{
			"POST /v1/transfer application/json trace",
			"POST /v1/transfer/s-wire/ack application/json",
			"GET /v1/transfer/s-wire/events?after=1 - trace",
		}},
		{"Heartbeat", func(ctx context.Context, c *Client) error {
			return c.Heartbeat(ctx, "s-wire")
		}, []string{"POST /v1/transfer/s-wire/heartbeat application/json"}},
		{"TransferStatus", func(ctx context.Context, c *Client) error {
			_, err := c.TransferStatus(ctx, "s-wire")
			return err
		}, []string{"GET /v1/transfer/s-wire -"}},
		{"Metrics", func(ctx context.Context, c *Client) error {
			_, err := c.Metrics(ctx)
			return err
		}, []string{"GET /metrics -"}},
		{"SLO", func(ctx context.Context, c *Client) error {
			_, err := c.SLO(ctx)
			return err
		}, []string{"GET /v1/slo -"}},
		{"TraceJSON", func(ctx context.Context, c *Client) error {
			_, err := c.TraceJSON(ctx)
			return err
		}, []string{"GET /v1/trace -"}},
		{"Health", func(ctx context.Context, c *Client) error {
			return c.Health(ctx)
		}, []string{"GET /healthz -"}},
	}
}

// expandWire renders a wireCase line for one variant.
func expandWire(line string, traced, vec bool) string {
	var out []string
	for _, f := range strings.Fields(line) {
		switch f {
		case "vec":
			if vec {
				out = append(out, HeaderMinVector+"=r0:2")
			}
		case "trace":
			if traced {
				out = append(out, HeaderSpanID+"=*", HeaderTraceID+"=*")
			}
		default:
			out = append(out, f)
		}
	}
	return strings.Join(out, " ")
}

func TestClientWireHeaders(t *testing.T) {
	wr := &wireRecorder{}
	hs := httptest.NewServer(wr)
	t.Cleanup(hs.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	for _, traced := range []bool{false, true} {
		for _, vec := range []bool{false, true} {
			t.Run(fmt.Sprintf("tracer=%v/vector=%v", traced, vec), func(t *testing.T) {
				c, err := NewClient(hs.URL)
				if err != nil {
					t.Fatal(err)
				}
				c.SetRetryPolicy(NoRetryPolicy())
				if traced {
					c.SetTracer(obs.NewWallRecorder(256))
				}
				if vec {
					c.MergeMinVector("r0:2")
				}
				for _, tc := range wireCases() {
					wr.take()
					if err := tc.run(ctx, c); err != nil {
						t.Fatalf("%s: %v", tc.name, err)
					}
					var want []string
					for _, l := range tc.want {
						want = append(want, expandWire(l, traced, vec))
					}
					if got := wr.take(); strings.Join(got, "\n") != strings.Join(want, "\n") {
						t.Errorf("%s sent:\n  %s\nwant:\n  %s", tc.name, strings.Join(got, "\n  "), strings.Join(want, "\n  "))
					}
				}
			})
		}
	}

	t.Run("ClusterStatusAll", func(t *testing.T) {
		rc, err := NewRingClient([]cluster.Member{{ID: "r0", Addr: hs.URL}})
		if err != nil {
			t.Fatal(err)
		}
		rc.SetTracer(obs.NewWallRecorder(256))
		rc.Client("r0").MergeMinVector("r0:2")
		wr.take()
		if sts := rc.ClusterStatusAll(ctx); len(sts) != 1 {
			t.Fatalf("statuses = %v, want one", sts)
		}
		if got, want := wr.take(), []string{"GET /v1/cluster -"}; strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("ClusterStatusAll sent %q, want %q", got, want)
		}
	})

	t.Run("GossipExchange", func(t *testing.T) {
		wr.take()
		if _, err := newHTTPGossipTransport().Exchange(ctx, hs.URL, cluster.Message{From: "r1"}); err != nil {
			t.Fatal(err)
		}
		if got, want := wr.take(), []string{"POST /v1/gossip application/json"}; strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("Exchange sent %q, want %q", got, want)
		}
	})
}
