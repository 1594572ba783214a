package serve

import (
	"hash/fnv"
	"slices"
	"sync"
	"sync/atomic"
)

// planCache is a sharded, epoch-stamped plan cache with
// singleflight-style request coalescing and fault-footprint validity.
//
// The epoch is the fault-set version: Advance bumps it once per fault
// event, in the same s.mu critical section that publishes the new fault
// set, and records the event's delta (the links whose fault status it
// changed) in a bounded log. A request reads the epoch and the fault set
// together under s.mu, so its epoch names exactly the faults it plans
// against. The stamp-and-check rule (DESIGN.md §8/§12) becomes:
//
//   - An entry is stamped with the epoch of the fault snapshot it was
//     computed from.
//   - A lookup at epoch E serves an entry stamped E: it was computed
//     from the very fault set the request would use.
//   - A complete entry with a different stamp S is served only when it
//     carries a footprint (the links its planner examined plus the links
//     of every submitted flow) and no delta recorded between S and E
//     touches it. The plan is then what the planner would produce at E,
//     so it is re-stamped to E. Entries without a footprint (group, agg,
//     sim and non-torus pair plans) and entries whose gap to E has left
//     the delta log are stale.
//
// Together these guarantee no lost invalidation: a fault event
// acknowledged before a request starts has an epoch no later than the
// request's, and any delta it recorded that touches a plan's footprint
// keeps that plan from being served to the request. A fault never
// sweeps the cache, and it drops only the plans whose planner looked at
// a changed link.
type planCache struct {
	maxShard int
	shards   []cacheShard

	// epoch is written only by Advance, under logMu; reads are lock-free.
	epoch atomic.Uint64
	logMu sync.RWMutex
	// deltas[v%deltaWindow] is the delta that produced epoch v, for the
	// last deltaWindow epochs: the symmetric difference between the two
	// fault sets, as sorted link keys (see linkKey).
	deltas [deltaWindow][]uint64
}

// deltaWindow is how many fault-set changes the plan cache remembers. A
// footprinted entry whose stamp is more than deltaWindow epochs from the
// request's is stale: the changes in between are no longer known. Hot
// entries are re-stamped on every served lookup, so the window counts
// fault events since an entry was last used, not since it was computed.
const deltaWindow = 256

type cacheShard struct {
	mu sync.Mutex
	m  map[string]*cacheEntry
}

// cacheEntry is one cached (or in-flight) plan computation. ready is
// closed once val/err/foot are final; waiters that find an unready entry
// are coalesced onto it instead of recomputing. epoch is guarded by the
// shard mutex (lookups re-stamp it).
type cacheEntry struct {
	epoch uint64
	ready chan struct{}
	val   []byte
	err   error
	// foot is the plan's fault footprint as sorted link keys; nil means
	// the entry is valid at its stamp's epoch only.
	foot []uint64
}

// cacheOutcome says how a Do call was satisfied.
type cacheOutcome int

const (
	// outcomeComputed: this caller ran the computation.
	outcomeComputed cacheOutcome = iota
	// outcomeHit: a completed entry stamped with the caller's epoch was
	// served.
	outcomeHit
	// outcomeCoalesced: the caller attached to an in-flight computation.
	outcomeCoalesced
	// outcomeRevalidated: a completed entry with another stamp was
	// served because no delta in between touched its footprint.
	outcomeRevalidated
	// outcomeFootprintMiss: a completed entry with another stamp was
	// rejected because a delta in between touched its footprint; this
	// caller ran the computation.
	outcomeFootprintMiss
)

// served reports whether the outcome served a stored entry's bytes
// without waiting on a computation.
func (o cacheOutcome) served() bool { return o == outcomeHit || o == outcomeRevalidated }

// computed reports whether this caller ran the computation.
func (o cacheOutcome) computed() bool { return o == outcomeComputed || o == outcomeFootprintMiss }

func newPlanCache(shards, entriesPerShard int) *planCache {
	if shards < 1 {
		shards = 1
	}
	if entriesPerShard < 1 {
		entriesPerShard = 1
	}
	c := &planCache{maxShard: entriesPerShard, shards: make([]cacheShard, shards)}
	for i := range c.shards {
		c.shards[i].m = make(map[string]*cacheEntry)
	}
	return c
}

// Epoch returns the current fault-set epoch.
func (c *planCache) Epoch() uint64 { return c.epoch.Load() }

// Advance records the change from the previous fault set to the next
// one and bumps the epoch, returning the new epoch. The caller publishes
// the new fault set in the same critical section (s.mu), so no snapshot
// can pair the new faults with the old epoch or the reverse. delta must
// be sorted (linkDelta builds it so); an empty delta is a bump that
// changed no link. Advance never sweeps the cache: O(len(delta)).
func (c *planCache) Advance(delta []uint64) uint64 {
	c.logMu.Lock()
	defer c.logMu.Unlock()
	next := c.epoch.Load() + 1
	c.deltas[next%deltaWindow] = delta
	c.epoch.Store(next)
	return next
}

// revalidate checks a complete footprinted entry stamped a for a lookup
// at epoch b (either order): outcomeRevalidated when no delta in between
// touches foot, outcomeFootprintMiss when one does, and outcomeComputed
// (stale) when the gap has left the log.
func (c *planCache) revalidate(a, b uint64, foot []uint64) cacheOutcome {
	if a > b {
		a, b = b, a
	}
	c.logMu.RLock()
	defer c.logMu.RUnlock()
	cur := c.epoch.Load()
	// Epochs a+1..b must all be in the log, which holds cur-deltaWindow+1..cur.
	if b > cur || a+deltaWindow < cur {
		return outcomeComputed
	}
	for v := a + 1; v <= b; v++ {
		for _, k := range c.deltas[v%deltaWindow] {
			if _, hit := slices.BinarySearch(foot, k); hit {
				return outcomeFootprintMiss
			}
		}
	}
	return outcomeRevalidated
}

func (c *planCache) shardFor(key string) *cacheShard {
	h := fnv.New32a()
	h.Write([]byte(key))
	return &c.shards[int(h.Sum32())%len(c.shards)]
}

// Do returns the plan for key at the caller's epoch, computing it at
// most once per epoch across concurrent callers. epoch must be read
// together with the fault snapshot compute plans against (see the type
// comment). compute returns the encoded plan and its footprint (nil for
// epoch-only plans). Failed computations are not cached.
func (c *planCache) Do(key string, epoch uint64, compute func() ([]byte, []uint64, error)) ([]byte, error, cacheOutcome) {
	sh := c.shardFor(key)
	sh.mu.Lock()
	outcome := outcomeComputed
	if e, ok := sh.m[key]; ok {
		complete := false
		select {
		case <-e.ready:
			complete = true
		default:
		}
		switch {
		case e.epoch == epoch:
			sh.mu.Unlock()
			if complete {
				return e.val, e.err, outcomeHit
			}
			<-e.ready
			return e.val, e.err, outcomeCoalesced
		case complete && e.foot != nil:
			// An in-flight entry is never revalidated: its footprint is
			// not known until it completes.
			outcome = c.revalidate(e.epoch, epoch, e.foot)
			if outcome == outcomeRevalidated {
				if epoch > e.epoch {
					e.epoch = epoch
				}
				sh.mu.Unlock()
				return e.val, e.err, outcome
			}
		}
	}
	e := &cacheEntry{epoch: epoch, ready: make(chan struct{})}
	if _, replacing := sh.m[key]; !replacing && len(sh.m) >= c.maxShard {
		// Shard full: drop one entry, old-stamp entries first. Eviction
		// never blocks waiters — they hold the entry pointer, not the map
		// slot.
		evicted := false
		cur := c.epoch.Load()
		for k, old := range sh.m {
			if old.epoch != cur {
				delete(sh.m, k)
				evicted = true
				break
			}
		}
		if !evicted {
			for k := range sh.m {
				delete(sh.m, k)
				break
			}
		}
	}
	sh.m[key] = e
	sh.mu.Unlock()

	e.val, e.foot, e.err = compute()
	close(e.ready)
	if e.err != nil {
		// Do not cache failures (including load-shed computations): the
		// next request must be free to retry. Only remove the slot if it
		// is still ours — a newer epoch's entry may have replaced it.
		sh.mu.Lock()
		if sh.m[key] == e {
			delete(sh.m, key)
		}
		sh.mu.Unlock()
	}
	return e.val, e.err, outcome
}

// Len reports the number of resident entries across all shards (stale
// entries included until lazily evicted).
func (c *planCache) Len() int {
	n := 0
	for i := range c.shards {
		c.shards[i].mu.Lock()
		n += len(c.shards[i].m)
		c.shards[i].mu.Unlock()
	}
	return n
}
