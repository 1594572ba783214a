package main

import (
	"math"
	"testing"
	"time"

	"bgqflow/internal/cluster"
	"bgqflow/internal/netsim"
	"bgqflow/internal/scenario"
	"bgqflow/internal/serve"
	"bgqflow/internal/torus"
)

func TestReportablePct(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		got  float64
	}{
		{100000, 99, 99},
		{10000, 99.9, 99.9}, // rank 9990: exactly ten beyond
		{9999, 99.9, 99},
		{1000, 99, 99}, // rank 990: exactly ten beyond
		{999, 99, 95},  // rank 990: nine beyond
		{200, 99, 95},
		{100, 99, 90},
		{20, 99, 50},
		{19, 99, 0},
		{0, 99, 0},
	} {
		if got := reportablePct(c.n, c.want); got != c.got {
			t.Errorf("reportablePct(%d, %g) = %g, want %g", c.n, c.want, got, c.got)
		}
	}
}

func TestSummarizeNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 1000..1, unsorted
	}
	d := summarize(xs, 99)
	if d.N != 1000 || d.P50 != 500 || d.TailPct != 99 || d.Tail != 990 {
		t.Fatalf("summarize = %+v, want n 1000, p50 500, p99 990", d)
	}
	// The first 500 values are 1000..501: p99 would rest on five values.
	if d := summarize(xs[:500], 99); d.TailPct != 95 || d.Tail != 975 {
		t.Fatalf("500 samples: %+v, want p95 975", d)
	}
	if d := summarize(nil, 99); d.P50 != 0 || d.Tail != 0 {
		t.Fatalf("empty sample: %+v", d)
	}
}

func TestWindowedTail(t *testing.T) {
	// Four windows of 1000; three hold a stall that owns their tail.
	xs := make([]float64, 4000)
	for i := range xs {
		xs[i] = 1
	}
	for _, w := range []int{0, 1, 3} {
		for i := 0; i < 100; i++ {
			xs[w*1000+i] = 50
		}
	}
	got, tails := bestWindow(xs, 99)
	if len(tails) != 4 || got != 1 {
		t.Fatalf("bestWindow = %g over %v, want 1 over 4 windows", got, tails)
	}
	if whole := summarize(xs, 99).Tail; whole != 50 {
		t.Fatalf("whole-sample p99 = %g, want 50 (a stall)", whole)
	}
	// A tail in every window is reported.
	for w := 0; w < 4; w++ {
		for i := 0; i < 20; i++ {
			xs[w*1000+600+i] = 7
		}
	}
	if got, _ := bestWindow(xs[2000:3000], 99); got != 7 {
		t.Fatalf("tail in every window: %g, want 7", got)
	}
	if got, _ := bestWindow(xs, 99); got != 7 {
		t.Fatalf("tail in every window: %g, want 7", got)
	}
	// Too short for two windows: the plain tail the sample supports.
	if got, tails := bestWindow(xs[1000:1500], 99); len(tails) != 1 || got != 50 {
		t.Fatalf("short sample: %g over %v", got, tails)
	}
}

func TestFailRatio(t *testing.T) {
	if r := failRatio(0, 1000); r != failFloor {
		t.Fatalf("failRatio(0, 1000) = %g, want the floor %g", r, failFloor)
	}
	if r := failRatio(1, 1000); r != 1e-3 {
		t.Fatalf("failRatio(1, 1000) = %g", r)
	}
}

// A sender slower than the arrival rate builds a backlog: timed from
// when each request was due, latency grows along the queue, while the
// scheduler itself stays on time.
func TestOpenLoopTimesFromDue(t *testing.T) {
	res := runOpen(1000, 100*time.Millisecond, 1, func(int) bool {
		time.Sleep(2 * time.Millisecond)
		return true
	})
	if res.Scheduled != 100 || res.Sent != 100 {
		t.Fatalf("scheduled %d sent %d, want 100 and 100", res.Scheduled, res.Sent)
	}
	first, last := res.Latency[0], res.Latency[len(res.Latency)-1]
	// Request 99 is due at 99 ms and finishes after 100 sends of >=2 ms.
	if last < 90 || last < 10*first {
		t.Fatalf("latency first %.2f ms, last %.2f ms: backlog not counted", first, last)
	}
	if why := res.behind(); why != "" {
		t.Fatalf("generator kept up but reported %q", why)
	}
}

// When the backlog outlasts the phase, the unsent requests show in the
// sent ratio and the run is marked as fallen behind; a failed request
// reads +Inf.
func TestOpenLoopFallsBehind(t *testing.T) {
	res := runOpen(1000, 50*time.Millisecond, 1, func(i int) bool {
		time.Sleep(10 * time.Millisecond)
		return i != 0
	})
	if res.Sent >= res.Scheduled || res.sentRatio() >= minSentRatio {
		t.Fatalf("sent %d of %d: backlog not detected", res.Sent, res.Scheduled)
	}
	if res.behind() == "" {
		t.Fatal("generator fell behind but was not marked")
	}
	if !math.IsInf(res.Latency[0], 1) {
		t.Fatalf("failed request latency %g, want +Inf", res.Latency[0])
	}
}

// Segments of a run add up: a segment whose generator fell behind marks
// the whole run, and latencies stay in due order.
func TestOpenLoopSegmentsAdd(t *testing.T) {
	var all openResult
	all.add(openResult{Latency: []float64{1, 2}, Late: []float64{0, 0}, Scheduled: 2, Sent: 2})
	if why := all.behind(); why != "" {
		t.Fatalf("first segment kept up but reported %q", why)
	}
	all.add(openResult{Latency: []float64{3}, Late: []float64{0}, Scheduled: 100, Sent: 1})
	if all.Scheduled != 102 || all.Sent != 3 || all.behind() == "" {
		t.Fatalf("scheduled %d sent %d behind %q: the short segment was lost", all.Scheduled, all.Sent, all.behind())
	}
	if got := all.Latency; len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("latencies %v, want [1 2 3]", got)
	}
}

func TestStampOf(t *testing.T) {
	for _, c := range []struct {
		before, after string
		origin        string
		seq           uint64
		ok            bool
	}{
		{"", "r0:1", "r0", 1, true},
		{"r0:1", "r0:1,r1:1", "r1", 1, true},
		{"r0:2,r1:1", "r0:3,r1:1", "r0", 3, true},
		{"r0:1", "r0:1", "", 0, false},
		{"r0:1", "r0:3", "", 0, false},
		{"r0:1", "r0:2,r1:1", "", 0, false},
		{"r0:1", "bad", "", 0, false},
	} {
		o, s, err := stampOf(c.before, c.after)
		if (err == nil) != c.ok || o != c.origin || s != c.seq {
			t.Errorf("stampOf(%q, %q) = %q, %d, %v", c.before, c.after, o, s, err)
		}
	}
}

func TestFaultsForReplaysNamedPosts(t *testing.T) {
	a := scenario.FailLink{Node: 1, Dim: 0, Dir: 1}
	b := scenario.FailLink{Node: 2, Dim: 1, Dir: 1}
	c := scenario.FailLink{Node: 3, Dim: 2, Dir: 1}
	log := faultLog{
		{"r0", 1, serve.FaultEvent{Links: []scenario.FailLink{a}}},
		{"r1", 1, serve.FaultEvent{Links: []scenario.FailLink{b}}},
		{"r2", 1, serve.FaultEvent{Clear: true}},
		{"r0", 2, serve.FaultEvent{Links: []scenario.FailLink{c}}},
	}
	for _, tc := range []struct {
		vec  string
		want []scenario.FailLink
	}{
		{"", nil},
		{"r0:1", []scenario.FailLink{a}},
		{"r0:1,r1:1", []scenario.FailLink{a, b}},
		{"r0:1,r1:1,r2:1", nil},
		{"r0:2,r1:1,r2:1", []scenario.FailLink{c}},
		// A replica may lag one origin: it replays what it has.
		{"r0:2,r1:1", []scenario.FailLink{a, b, c}},
	} {
		v, err := cluster.ParseVector(tc.vec)
		if err != nil {
			t.Fatal(err)
		}
		got := log.faultsFor(v)
		if len(got) != len(tc.want) {
			t.Errorf("faultsFor(%q) = %v, want %v", tc.vec, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("faultsFor(%q) = %v, want %v", tc.vec, got, tc.want)
				break
			}
		}
	}
}

func smallRun(t *testing.T, bytes int64) *netsim.Engine {
	t.Helper()
	tor, err := torus.New(torus.Shape{2, 2, 2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	p := netsim.DefaultParams()
	e, err := netsim.NewEngine(netsim.NewNetwork(tor, p.LinkBandwidth), p)
	if err != nil {
		t.Fatal(err)
	}
	e.Submit(netsim.FlowSpec{Src: 0, Dst: 31, Bytes: bytes})
	e.Submit(netsim.FlowSpec{Src: 1, Dst: 30, Bytes: 1 << 20})
	e.FailLinkAt(0, 1)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestSimDigest(t *testing.T) {
	digest := func(e *netsim.Engine) string {
		d := newSimDigest()
		d.engine(e)
		return d.String()
	}
	a, b := digest(smallRun(t, 4<<20)), digest(smallRun(t, 4<<20))
	if a != b {
		t.Fatalf("same run, digests %s and %s", a, b)
	}
	if c := digest(smallRun(t, 4<<20+1)); c == a {
		t.Fatalf("one byte more, same digest %s", c)
	}
}

func TestDirectHashCorrupt(t *testing.T) {
	req := serve.PairRequest{Shape: serveShape, Src: 0, Dst: 127, Bytes: 1 << 20}
	h1, err := directHash(req, "", nil, false)
	if err != nil {
		t.Fatal(err)
	}
	h2, _ := directHash(req, "", nil, false)
	h3, _ := directHash(req, "", nil, true)
	if h1 != h2 || h1 == h3 {
		t.Fatalf("hashes %x %x %x: want stable, and a corrupted plan to differ", h1, h2, h3)
	}
}
