package serve

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
)

// VerifyFaults installs the fault verifier for the rest of the test:
// after every fault event any Server applies, each cached pair plan that
// a lookup at the new epoch would still serve is re-planned with
// ComputePair under the new fault set and byte-compared. It returns the
// running count of entries checked. Install it before starting servers
// so its cleanup runs after theirs.
func VerifyFaults(t testing.TB) *atomic.Int64 {
	var checked atomic.Int64
	verify := func(s *Server) {
		epoch, faults := s.snapshot()
		s.cache.servable(epoch, func(key string, val []byte) {
			req, ok := pairRequestFromKey(key)
			if !ok {
				t.Errorf("verifier: footprinted entry %q is not a pair plan", key)
				return
			}
			plan, err := ComputePair(req, faults)
			if err != nil {
				t.Errorf("verifier: entry %q survived epoch %d but re-planning fails: %v", key, epoch, err)
				return
			}
			want, _ := json.Marshal(plan)
			if !bytes.Equal(val, want) {
				t.Errorf("verifier: entry %q survived epoch %d but re-plans differently\ncached:  %s\nreplan:  %s", key, epoch, val, want)
			}
			checked.Add(1)
		})
	}
	if !faultVerifier.CompareAndSwap(nil, &verify) {
		t.Fatal("fault verifier already installed")
	}
	t.Cleanup(func() { faultVerifier.Store(nil) })
	return &checked
}

// pairRequestFromKey inverts PairRequest.cacheKey for torus requests:
// pair|shape|params|src|dst|bucket|bytes|proxies.
func pairRequestFromKey(key string) (PairRequest, bool) {
	f := strings.Split(key, "|")
	if len(f) != 8 || f[0] != "pair" {
		return PairRequest{}, false
	}
	var n [4]int64
	for i, s := range []string{f[3], f[4], f[6], f[7]} {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return PairRequest{}, false
		}
		n[i] = v
	}
	req := PairRequest{Shape: f[1], Src: int(n[0]), Dst: int(n[1]), Bytes: n[2], Proxies: int(n[3])}
	return req, req.cacheKey() == key
}

// servable calls fn for every complete, footprinted entry that a lookup
// at epoch would serve, without re-stamping it.
func (c *planCache) servable(epoch uint64, fn func(key string, val []byte)) {
	type kv struct {
		key string
		val []byte
	}
	var out []kv
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for k, e := range sh.m {
			select {
			case <-e.ready:
			default:
				continue
			}
			if e.err == nil && e.foot != nil && (e.epoch == epoch || c.revalidate(e.epoch, epoch, e.foot) == outcomeRevalidated) {
				out = append(out, kv{k, e.val})
			}
		}
		sh.mu.Unlock()
	}
	for _, p := range out {
		fn(p.key, p.val)
	}
}
