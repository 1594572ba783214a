package serve

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"bgqflow/internal/scenario"
)

// TestCacheKeyPinned pins the pair cache-key string, params signature
// included: computing the signature once per process must not change
// a key.
func TestCacheKeyPinned(t *testing.T) {
	got := PairRequest{Shape: "2x2x4x4x2", Src: 0, Dst: 97, Bytes: 4 << 20}.cacheKey()
	const want = "pair|2x2x4x4x2|f7713061c59a0fc4|0|97|b23|4194304|0"
	if got != want {
		t.Fatalf("cacheKey = %q, want %q", got, want)
	}
	if paramsSignature() != paramsSignature() {
		t.Fatal("params signature not stable")
	}
}

// randomFaults draws n single-link faults on the 2x2x4x4x2 torus.
func randomFaults(rng *rand.Rand, n int) []scenario.FailLink {
	out := make([]scenario.FailLink, n)
	for i := range out {
		out[i] = scenario.FailLink{Node: rng.Intn(128), Dim: rng.Intn(5), Dir: 1 - 2*rng.Intn(2)}
	}
	return out
}

// TestFootprintSoundness is the property the footprint rule rests on:
// when the links that changed between two fault sets miss a plan's
// footprint, the plan computed under the second set is byte-identical to
// the first. It also pins that the footprint holds every flow link.
func TestFootprintSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sizes := []int64{64 << 10, 1 << 20, 8 << 20}
	kept, touched := 0, 0
	for i := 0; i < 600; i++ {
		req := PairRequest{
			Shape:   "2x2x4x4x2",
			Src:     rng.Intn(128),
			Dst:     rng.Intn(128),
			Bytes:   sizes[rng.Intn(len(sizes))],
			Proxies: rng.Intn(4) - 1,
		}
		before := randomFaults(rng, rng.Intn(4))
		plan, foot, err := computePair(req, before)
		if err != nil {
			continue // a cut direct path; not cached
		}
		if foot == nil || !slices.IsSorted(foot) {
			t.Fatalf("req %+v: footprint %v not a sorted non-nil set", req, foot)
		}
		for _, f := range plan.Flows {
			for _, l := range f.Links {
				node, dim, dir := l/10, (l/2)%5, 1-2*(l&1)
				if _, ok := slices.BinarySearch(foot, linkKey(node, dim, dir)); !ok {
					t.Fatalf("req %+v: flow link %d missing from footprint", req, l)
				}
			}
		}
		// Mutate: heal one link, or fail a new one — half the time on a
		// node the plan's flows pass through, where a change is most
		// likely to matter.
		after := append([]scenario.FailLink(nil), before...)
		switch {
		case len(after) > 0 && rng.Intn(3) == 0:
			after = after[1:]
		case rng.Intn(2) == 0 && len(plan.Flows[0].Links) > 0:
			f := plan.Flows[rng.Intn(len(plan.Flows))]
			if len(f.Links) == 0 {
				f = plan.Flows[0]
			}
			node := f.Links[rng.Intn(len(f.Links))] / 10
			after = append(after, scenario.FailLink{Node: node, Dim: rng.Intn(5), Dir: 1 - 2*rng.Intn(2)})
		default:
			after = append(after, randomFaults(rng, 1)...)
		}
		hit := false
		for _, k := range linkDelta(before, after) {
			if _, ok := slices.BinarySearch(foot, k); ok {
				hit = true
			}
		}
		if hit {
			touched++
			continue
		}
		kept++
		want, _ := json.Marshal(plan)
		again, _, err := computePair(req, after)
		if err != nil {
			t.Fatalf("req %+v: plan kept by footprint fails under %v: %v", req, after, err)
		}
		got, _ := json.Marshal(again)
		if !bytes.Equal(got, want) {
			t.Fatalf("req %+v: delta %v misses the footprint but the plan changed\nbefore: %s\nafter:  %s",
				req, linkDelta(before, after), want, got)
		}
	}
	if kept == 0 || touched == 0 {
		t.Fatalf("property not exercised: kept %d, touched %d", kept, touched)
	}
	t.Logf("kept %d, touched %d", kept, touched)
}

// TestNonTorusPairIsEpochOnly: non-torus plans ignore faults and carry
// no footprint.
func TestNonTorusPairIsEpochOnly(t *testing.T) {
	_, foot, err := computePair(PairRequest{Topology: "dragonfly:4x4x2", Src: 0, Dst: 5, Bytes: 1 << 20, Proxies: -1}, nil)
	if err != nil || foot != nil {
		t.Fatalf("non-torus footprint = %v, %v; want nil", foot, err)
	}
}

// TestWorkerPanicContained: a panicking plan computation answers 500,
// is counted on serve/panics, is not cached, and leaves the worker pool
// serving.
func TestWorkerPanicContained(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1})
	defer s.Close()
	rec := httptest.NewRecorder()
	s.servePlan(rec, httptest.NewRequest("POST", "/v1/plan/pair", nil), "pair", "key-panic",
		func([]scenario.FailLink) (any, []uint64, error) { panic("bad plan") })
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking plan: status %d, want 500", rec.Code)
	}
	if got := s.reg.Counter("serve/panics").Value(); got != 1 {
		t.Fatalf("serve/panics = %d, want 1", got)
	}
	// Same key again: nothing was cached, and the single worker is alive.
	rec = httptest.NewRecorder()
	s.servePlan(rec, httptest.NewRequest("POST", "/v1/plan/pair", nil), "pair", "key-panic",
		func([]scenario.FailLink) (any, []uint64, error) { return PairPlan{Mode: "direct"}, nil, nil })
	if rec.Code != http.StatusOK {
		t.Fatalf("after a panic: status %d, want 200: %s", rec.Code, rec.Body)
	}
	if got := s.reg.Counter("serve/plans_computed").Value(); got != 1 {
		t.Fatalf("plans_computed = %d, want 1 (the panicked plan must not be cached)", got)
	}
}
