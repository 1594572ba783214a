package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"bgqflow/internal/scenario"
)

// TestServePlanShedsUnderLoad drives the admission path deterministically:
// one worker pinned on a blocking computation, the single queue slot
// filled — the next distinct request must be shed with 429 and a
// Retry-After hint, never queued or blocked.
func TestServePlanShedsUnderLoad(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1})
	defer s.Close()

	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan *httptest.ResponseRecorder, 2)
	go func() {
		rec := httptest.NewRecorder()
		s.servePlan(rec, httptest.NewRequest("POST", "/v1/plan/pair", nil), "pair", "key-blocking", func([]scenario.FailLink) (any, []uint64, error) {
			close(started)
			<-release
			return PairPlan{Mode: "direct"}, nil, nil
		})
		done <- rec
	}()
	<-started // the worker is pinned
	go func() {
		rec := httptest.NewRecorder()
		s.servePlan(rec, httptest.NewRequest("POST", "/v1/plan/pair", nil), "pair", "key-fill", func([]scenario.FailLink) (any, []uint64, error) {
			return PairPlan{Mode: "direct"}, nil, nil
		})
		done <- rec
	}()
	// Wait for the filler to occupy the queue slot.
	for s.disp.queued() != 1 {
		time.Sleep(time.Millisecond)
	}

	rec := httptest.NewRecorder()
	s.servePlan(rec, httptest.NewRequest("POST", "/v1/plan/pair", nil), "pair", "key-shed", func([]scenario.FailLink) (any, []uint64, error) {
		t.Error("shed request must not compute")
		return nil, nil, nil
	})
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra == "" {
		t.Fatal("shed response missing Retry-After header")
	}
	var env planEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error == "" {
		t.Fatalf("shed envelope: %v (err %v)", env, err)
	}

	close(release)
	for i := 0; i < 2; i++ {
		if r := <-done; r.Code != http.StatusOK {
			t.Fatalf("admitted request %d finished with %d, want 200", i, r.Code)
		}
	}
	if got := s.reg.Counter("serve/shed").Value(); got != 1 {
		t.Fatalf("serve/shed = %d, want 1", got)
	}
	// A retry of the shed key with a free worker must now succeed: failed
	// (shed) computations are not cached.
	rec = httptest.NewRecorder()
	s.servePlan(rec, httptest.NewRequest("POST", "/v1/plan/pair", nil), "pair", "key-shed", func([]scenario.FailLink) (any, []uint64, error) {
		return PairPlan{Mode: "direct"}, nil, nil
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("retry after shed: status %d, want 200", rec.Code)
	}
}
