package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bgqflow/internal/scenario"
)

func TestCacheComputeThenHit(t *testing.T) {
	c := newPlanCache(4, 16)
	calls := 0
	compute := func() ([]byte, []uint64, error) { calls++; return []byte("plan"), nil, nil }

	v, err, out := c.Do("k", c.Epoch(), compute)
	if err != nil || string(v) != "plan" || out != outcomeComputed {
		t.Fatalf("first Do: %q %v %v", v, err, out)
	}
	v, err, out = c.Do("k", c.Epoch(), compute)
	if err != nil || string(v) != "plan" || out != outcomeHit {
		t.Fatalf("second Do: %q %v %v", v, err, out)
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
}

func TestCacheCoalescesConcurrentCallers(t *testing.T) {
	c := newPlanCache(1, 16)
	started := make(chan struct{})
	release := make(chan struct{})
	var computes atomic.Int64

	go c.Do("k", c.Epoch(), func() ([]byte, []uint64, error) {
		computes.Add(1)
		close(started)
		<-release
		return []byte("plan"), nil, nil
	})
	<-started

	const waiters = 8
	var wg sync.WaitGroup
	var coalesced atomic.Int64
	wg.Add(waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			defer wg.Done()
			v, err, out := c.Do("k", c.Epoch(), func() ([]byte, []uint64, error) {
				computes.Add(1)
				return []byte("other"), nil, nil
			})
			if err != nil || string(v) != "plan" {
				t.Errorf("waiter got %q, %v", v, err)
			}
			if out == outcomeCoalesced {
				coalesced.Add(1)
			}
		}()
	}
	// Give the waiters time to attach to the in-flight entry before the
	// computation finishes. The entry is inserted before compute runs, so
	// the computes==1 assertion holds regardless; the window only makes
	// the coalesced-outcome observation robust.
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()
	if got := computes.Load(); got != 1 {
		t.Fatalf("compute ran %d times, want 1", got)
	}
	if coalesced.Load() == 0 {
		t.Fatalf("no waiter was coalesced")
	}
}

func TestCacheInvalidateHidesOldEntries(t *testing.T) {
	c := newPlanCache(4, 16)
	calls := 0
	compute := func() ([]byte, []uint64, error) { calls++; return []byte(fmt.Sprint(calls)), nil, nil }

	c.Do("k", c.Epoch(), compute)
	c.Advance(nil)
	v, _, out := c.Do("k", c.Epoch(), compute)
	if out != outcomeComputed || string(v) != "2" {
		t.Fatalf("post-invalidate Do: %q %v (calls %d)", v, out, calls)
	}
}

// TestCacheNoLostInvalidation pins the stamp-and-check discipline: a
// computation that began under the old epoch must be invisible to
// lookups after the bump, even though it finished after the bump.
func TestCacheNoLostInvalidation(t *testing.T) {
	c := newPlanCache(1, 16)
	preEpoch := c.Epoch()
	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Do("k", preEpoch, func() ([]byte, []uint64, error) {
			close(started)
			<-release
			return []byte("stale"), nil, nil
		})
	}()
	<-started
	c.Advance(nil) // fault event lands mid-computation
	close(release)
	<-done

	v, _, out := c.Do("k", c.Epoch(), func() ([]byte, []uint64, error) { return []byte("fresh"), nil, nil })
	if string(v) != "fresh" || out != outcomeComputed {
		t.Fatalf("stale entry served after invalidation: %q %v", v, out)
	}
}

func TestCacheErrorsNotCached(t *testing.T) {
	c := newPlanCache(4, 16)
	calls := 0
	c.Do("k", c.Epoch(), func() ([]byte, []uint64, error) { calls++; return nil, nil, fmt.Errorf("boom") })
	v, err, _ := c.Do("k", c.Epoch(), func() ([]byte, []uint64, error) { calls++; return []byte("ok"), nil, nil })
	if err != nil || string(v) != "ok" || calls != 2 {
		t.Fatalf("retry after error: %q %v calls=%d", v, err, calls)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (failed entry evicted)", c.Len())
	}
}

func TestCacheShardOverflowEvicts(t *testing.T) {
	c := newPlanCache(1, 4)
	for i := 0; i < 32; i++ {
		c.Do(fmt.Sprintf("k%d", i), c.Epoch(), func() ([]byte, []uint64, error) { return []byte("x"), nil, nil })
	}
	if n := c.Len(); n > 5 {
		t.Fatalf("shard grew to %d entries, cap 4 (+1 in flight)", n)
	}
}

// footed returns a compute func that counts calls and returns a plan
// with the given footprint.
func footed(calls *int, foot []uint64) func() ([]byte, []uint64, error) {
	return func() ([]byte, []uint64, error) {
		*calls++
		return []byte(fmt.Sprint("plan", *calls)), foot, nil
	}
}

func TestCacheFaultOutsideFootprintIsHit(t *testing.T) {
	c := newPlanCache(4, 16)
	calls := 0
	foot := []uint64{linkKey(3, 0, 1), linkKey(3, 1, -1), linkKey(9, 2, 1)}
	c.Do("k", c.Epoch(), footed(&calls, foot))
	e := c.Advance([]uint64{linkKey(3, 0, -1)}) // same node and dim, other direction
	v, _, out := c.Do("k", e, footed(&calls, foot))
	if out != outcomeRevalidated || string(v) != "plan1" || calls != 1 {
		t.Fatalf("fault outside footprint: %q %v (calls %d)", v, out, calls)
	}
	// Re-stamped: the next lookup at the same epoch is a plain hit.
	if _, _, out := c.Do("k", e, footed(&calls, foot)); out != outcomeHit {
		t.Fatalf("re-stamped entry: outcome %v, want hit", out)
	}
}

func TestCacheFaultInsideFootprintRecomputes(t *testing.T) {
	c := newPlanCache(4, 16)
	calls := 0
	foot := []uint64{linkKey(3, 0, 1), linkKey(9, 2, 1)}
	c.Do("k", c.Epoch(), footed(&calls, foot))
	e := c.Advance([]uint64{linkKey(1, 0, 1), linkKey(9, 2, 1)})
	v, _, out := c.Do("k", e, footed(&calls, foot))
	if out != outcomeFootprintMiss || string(v) != "plan2" {
		t.Fatalf("fault inside footprint: %q %v", v, out)
	}
	if _, _, out := c.Do("k", e, footed(&calls, foot)); out != outcomeHit || calls != 2 {
		t.Fatalf("recomputed entry: outcome %v calls %d", out, calls)
	}
}

// TestCacheHealInsideFootprintRecomputes: a Clear changes the status of
// every link it heals, exactly like a failure; the delta is the
// symmetric difference of the two fault sets.
func TestCacheHealInsideFootprintRecomputes(t *testing.T) {
	c := newPlanCache(4, 16)
	calls := 0
	failed := []scenario.FailLink{{Node: 5, Dim: 1, Dir: -1}}
	c.Advance(linkDelta(nil, failed))
	// Planned while (5,1,-) was down: the planner queried it.
	foot := []uint64{linkKey(5, 1, -1), linkKey(6, 0, 1)}
	c.Do("k", c.Epoch(), footed(&calls, foot))
	e := c.Advance(linkDelta(failed, nil)) // Clear
	if _, _, out := c.Do("k", e, footed(&calls, foot)); out != outcomeFootprintMiss || calls != 2 {
		t.Fatalf("heal of a footprint link: outcome %v calls %d", out, calls)
	}
	// A Clear that heals only links outside the footprint keeps it.
	other := []scenario.FailLink{{Node: 40, Dim: 4, Dir: 1}}
	c.Advance(linkDelta(nil, other))
	e = c.Advance(linkDelta(other, nil))
	if _, _, out := c.Do("k", e, footed(&calls, foot)); out != outcomeRevalidated || calls != 2 {
		t.Fatalf("heal outside footprint: outcome %v calls %d", out, calls)
	}
}

func TestCacheEntryOlderThanWindowRecomputes(t *testing.T) {
	c := newPlanCache(4, 16)
	calls := 0
	foot := []uint64{linkKey(3, 0, 1)}
	c.Do("k", c.Epoch(), footed(&calls, foot))
	for i := 0; i < deltaWindow-1; i++ {
		c.Advance([]uint64{linkKey(100+i, 0, 1)})
	}
	// deltaWindow-1 changes back: still inside the log.
	if _, _, out := c.Do("k", c.Epoch(), footed(&calls, foot)); out != outcomeRevalidated {
		t.Fatalf("inside window: outcome %v", out)
	}
	for i := 0; i <= deltaWindow; i++ {
		c.Advance(nil)
	}
	if _, _, out := c.Do("k", c.Epoch(), footed(&calls, foot)); out != outcomeComputed || calls != 2 {
		t.Fatalf("older than window: outcome %v calls %d", out, calls)
	}
}

// TestCacheInFlightNeverRevalidated: an in-flight entry's footprint is
// unknown, so a caller at a newer epoch computes instead of attaching.
func TestCacheInFlightNeverRevalidated(t *testing.T) {
	c := newPlanCache(1, 16)
	pre := c.Epoch()
	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Do("k", pre, func() ([]byte, []uint64, error) {
			close(started)
			<-release
			return []byte("old"), []uint64{linkKey(1, 0, 1)}, nil
		})
	}()
	<-started
	e := c.Advance([]uint64{linkKey(50, 3, -1)}) // outside the footprint
	v, _, out := c.Do("k", e, func() ([]byte, []uint64, error) {
		return []byte("new"), []uint64{linkKey(1, 0, 1)}, nil
	})
	close(release)
	<-done
	if out != outcomeComputed || string(v) != "new" {
		t.Fatalf("in-flight entry served at a newer epoch: %q %v", v, out)
	}
}

// TestCacheNoFootprintStaysEpochOnly: an entry without a footprint is
// never revalidated, even when the delta is empty.
func TestCacheNoFootprintStaysEpochOnly(t *testing.T) {
	c := newPlanCache(4, 16)
	calls := 0
	c.Do("k", c.Epoch(), footed(&calls, nil))
	e := c.Advance(nil)
	if _, _, out := c.Do("k", e, footed(&calls, nil)); out != outcomeComputed || calls != 2 {
		t.Fatalf("epoch-only entry after a bump: outcome %v calls %d", out, calls)
	}
}

func TestLinkDeltaIsSymmetricDifference(t *testing.T) {
	a := []scenario.FailLink{{Node: 1, Dim: 0, Dir: 1}, {Node: 2, Dim: 1, Dir: -1}, {Node: 1, Dim: 0, Dir: 1}}
	b := []scenario.FailLink{{Node: 2, Dim: 1, Dir: -1}, {Node: 7, Dim: 4, Dir: 1}, {Node: 3, Dim: 99, Dir: 1}}
	got := linkDelta(a, b)
	want := []uint64{linkKey(1, 0, 1), linkKey(7, 4, 1)}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("linkDelta = %v, want %v", got, want)
	}
	if d := linkDelta(b, a); fmt.Sprint(d) != fmt.Sprint(want) {
		t.Fatalf("linkDelta reversed = %v, want %v", d, want)
	}
}
