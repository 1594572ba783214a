package serve_test

import (
	"context"
	"testing"

	"bgqflow/internal/serve"
)

// Client round-trip benchmarks: one plan request over loopback HTTP
// against a warmed plan cache, so the measured cost is the client's
// request path plus the daemon's envelope and cache-hit path — no
// planner work. Run with -benchmem; allocs/op covers both sides of
// the connection because the daemon runs in-process.

func BenchmarkClientPlanPairHit(b *testing.B) {
	_, client := newTestDaemon(b, serve.Config{})
	benchPlanPairHit(b, client.PlanPair)
}

func BenchmarkRingPlanPairHit(b *testing.B) {
	tc := newTestCluster(b, 3, nil)
	benchPlanPairHit(b, tc.ring.PlanPair)
}

func benchPlanPairHit(b *testing.B, plan func(context.Context, serve.PairRequest) (serve.PlanResult, error)) {
	ctx := context.Background()
	req := serve.PairRequest{Shape: testShape, Src: 0, Dst: 97, Bytes: 4 << 20}
	if res, err := plan(ctx, req); err != nil || !res.OK() {
		b.Fatalf("warm-up plan: %v status %d", err, res.Status)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := plan(ctx, req)
		if err != nil || !res.Cached {
			b.Fatalf("plan %d: %v cached=%v", i, err, res.Cached)
		}
	}
}
