package serve

// Shed-then-succeed (satellite): a deliberately tiny 1-worker daemon is
// pinned with a blocking computation and its single queue slot filled —
// exactly the setup TestServePlanShedsUnderLoad proves sheds with 429 +
// Retry-After. Here a real client rides through it: without retries it
// surfaces the shed; with the jittered, Retry-After-honoring backoff it
// keeps knocking until the worker frees up and the plan lands.

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"bgqflow/internal/scenario"
)

func TestClientRetryAfterShed(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1, RetryAfter: time.Second})
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() { hs.Close(); s.Close() })
	client, err := NewClient(hs.URL)
	if err != nil {
		t.Fatal(err)
	}

	// Pin the worker and fill the queue slot with blocking computations.
	// The release closes are Once-wrapped and registered as cleanups so a
	// mid-test Fatal cannot leave the worker pinned and deadlock Close.
	started := make(chan struct{})
	release := make(chan struct{})
	releaseOnce := sync.OnceFunc(func() { close(release) })
	t.Cleanup(releaseOnce)
	var pinned sync.WaitGroup
	pinned.Add(2)
	go func() {
		defer pinned.Done()
		rec := httptest.NewRecorder()
		s.servePlan(rec, httptest.NewRequest("POST", "/v1/plan/pair", nil), "pair", "key-pin", func([]scenario.FailLink) (any, []uint64, error) {
			close(started)
			<-release
			return PairPlan{Mode: "direct"}, nil, nil
		})
	}()
	<-started
	go func() {
		defer pinned.Done()
		rec := httptest.NewRecorder()
		s.servePlan(rec, httptest.NewRequest("POST", "/v1/plan/pair", nil), "pair", "key-fill", func([]scenario.FailLink) (any, []uint64, error) {
			return PairPlan{Mode: "direct"}, nil, nil
		})
	}()
	for s.disp.queued() != 1 {
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req := PairRequest{Shape: "2x2x4x4x2", Src: 0, Dst: 97, Bytes: 4 << 20}

	// Without retries the shed surfaces, carrying the server's backoff
	// hint.
	client.SetRetryPolicy(NoRetryPolicy())
	res, err := client.PlanPair(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Shed() {
		t.Fatalf("status %d against a pinned 1-worker daemon, want 429", res.Status)
	}
	if res.RetryAfter < time.Second {
		t.Fatalf("RetryAfter = %v, want >= 1s from the Retry-After header", res.RetryAfter)
	}
	if res.Retries != 0 {
		t.Fatalf("Retries = %d under NoRetryPolicy, want 0", res.Retries)
	}

	// With backoff: keep shedding while the worker is pinned, then free
	// it after the client has been turned away at least once — the same
	// request must ride the retry loop to a 200.
	client.SetRetryPolicy(RetryPolicy{
		MaxAttempts: 0, // context-bounded
		BaseBackoff: 5 * time.Millisecond,
		MaxBackoff:  50 * time.Millisecond,
		Jitter:      0.25,
	})
	shedBefore := s.reg.Counter("serve/shed").Value()
	go func() {
		for s.reg.Counter("serve/shed").Value() == shedBefore {
			time.Sleep(time.Millisecond)
		}
		releaseOnce()
	}()
	res, err = client.PlanPair(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("final status %d after %d retries, want 200", res.Status, res.Retries)
	}
	if res.Retries == 0 {
		t.Fatal("Retries = 0: the client never backed off, so the shed path was not exercised")
	}
	pinned.Wait()
	if shed := s.reg.Counter("serve/shed").Value(); shed <= shedBefore {
		t.Fatalf("serve/shed = %d, want > %d", shed, shedBefore)
	}

	// MaxAttempts bounds the loop: with the worker pinned again a capped
	// policy gives up and returns the last shed response as-is. A fresh
	// pair — the successful plan above is cached, and a cache hit would
	// bypass admission entirely.
	req2 := PairRequest{Shape: "2x2x4x4x2", Src: 3, Dst: 64, Bytes: 8 << 20}
	release2 := make(chan struct{})
	release2Once := sync.OnceFunc(func() { close(release2) })
	t.Cleanup(release2Once)
	started2 := make(chan struct{})
	var repin sync.WaitGroup
	repin.Add(1)
	go func() {
		defer repin.Done()
		rec := httptest.NewRecorder()
		s.servePlan(rec, httptest.NewRequest("POST", "/v1/plan/pair", nil), "pair", "key-pin-2", func([]scenario.FailLink) (any, []uint64, error) {
			close(started2)
			<-release2
			return PairPlan{Mode: "direct"}, nil, nil
		})
	}()
	<-started2
	repin.Add(1)
	go func() {
		defer repin.Done()
		rec := httptest.NewRecorder()
		s.servePlan(rec, httptest.NewRequest("POST", "/v1/plan/pair", nil), "pair", "key-fill-2", func([]scenario.FailLink) (any, []uint64, error) {
			return PairPlan{Mode: "direct"}, nil, nil
		})
	}()
	for s.disp.queued() != 1 {
		time.Sleep(time.Millisecond)
	}
	client.SetRetryPolicy(RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond})
	res, err = client.PlanPair(ctx, req2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != http.StatusTooManyRequests {
		t.Fatalf("capped policy: status %d, want 429 surfaced after giving up", res.Status)
	}
	if res.Retries != 2 {
		t.Fatalf("capped policy: Retries = %d, want 2 (3 attempts)", res.Retries)
	}
	release2Once()
	repin.Wait()
}
