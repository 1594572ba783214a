package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"bgqflow/internal/cluster"
)

// Cluster plane (DESIGN.md §17): when Config.ReplicaID is set, the
// daemon is one replica of a bgqd cluster. Fault events stop mutating a
// private fault set and instead enter a gossiped, versioned epoch log
// (cluster.Log); the serve layer's fault set and epoch become a pure
// function of the applied event set, so every replica that has applied
// the same events plans against the same faults — the PR 5
// stamp-and-check discipline, now distributed. POST /v1/gossip is the
// peer wire, GET /v1/cluster the observability endpoint, and the
// X-Bgq-Min-Vector check in servePlan the staleness gate.

// clusterPlane glues a cluster.Node into a Server.
type clusterPlane struct {
	s    *Server
	node *cluster.Node
	stop chan struct{}
	done chan struct{}
	// pubVer is the highest log version published to the serve layer;
	// guarded by s.mu alongside s.faults and s.vec.
	pubVer uint64
}

func newClusterPlane(s *Server) *clusterPlane {
	cp := &clusterPlane{
		s:    s,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	cp.node = cluster.NewNode(cluster.NodeConfig{
		ID:        s.cfg.ReplicaID,
		Peers:     s.cfg.Peers,
		Transport: newHTTPGossipTransport(),
		Seed:      s.cfg.GossipSeed,
		OnApply:   cp.onApply,
	}, cluster.NewLog())
	go cp.loop(s.cfg.GossipInterval)
	return cp
}

// onApply runs after events are newly applied to the log (local
// originations and gossip deliveries alike). It republishes the serve
// layer's fault set and vector — together, under s.mu, guarded by the
// log version so a slow hook can never roll state backwards — and
// advances the cache epoch with the changed links in the same critical
// section: the single-process no-lost-invalidation proof (see
// planCache) carries over unchanged. A stale hook still bumps the epoch,
// with an empty delta.
func (cp *clusterPlane) onApply(evs []cluster.Event) {
	s := cp.s
	ver, vec, faults := cp.node.Log().Snapshot()
	s.mu.Lock()
	stale := cp.pubVer >= ver
	var delta []uint64
	if !stale {
		delta = linkDelta(s.faults, faults)
		s.faults = faults
		s.vec = vec
		cp.pubVer = ver
	}
	epoch := s.cache.Advance(delta)
	s.mu.Unlock()
	s.reg.Counter("serve/fault_events").Add(int64(len(evs)))
	if !stale {
		s.reg.Gauge("serve/fault_links").Set(float64(len(faults)))
	}
	// Forward link failures into running transfer sessions (repairs —
	// Clear — do not propagate; a session's engine cannot un-fail a link
	// mid-run).
	for _, ev := range evs {
		if len(ev.Links) > 0 {
			s.sessions.pushFaults(ev.Links, epoch)
		}
	}
	s.afterFault()
}

// loop runs anti-entropy rounds until stopLoop.
func (cp *clusterPlane) loop(interval time.Duration) {
	defer close(cp.done)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-cp.stop:
			return
		case <-t.C:
			ctx, cancel := context.WithTimeout(context.Background(), 4*interval)
			cp.node.Round(ctx)
			cancel()
		}
	}
}

func (cp *clusterPlane) stopLoop() {
	close(cp.stop)
	<-cp.done
}

// checkMinVector enforces a request's X-Bgq-Min-Vector demand against
// the vector snapshot the caller already holds. It writes the response
// and returns false when the request must not proceed: 400 on a
// malformed header, 503 when this replica has not yet applied the
// demanded events.
func (s *Server) checkMinVector(w http.ResponseWriter, r *http.Request, epoch uint64, vec cluster.Vector) bool {
	min := r.Header.Get(HeaderMinVector)
	if min == "" {
		return true
	}
	want, err := cluster.ParseVector(min)
	if err != nil {
		s.reg.Counter("serve/errors").Inc()
		writeJSON(w, http.StatusBadRequest, planEnvelope{Epoch: epoch, Error: err.Error(), Vector: vec.String()})
		return false
	}
	if !vec.Dominates(want) {
		s.reg.Counter("serve/stale_rejects").Inc()
		writeJSON(w, http.StatusServiceUnavailable, planEnvelope{
			Epoch:  epoch,
			Error:  fmt.Sprintf("serve: replica %s at vector %q behind requested %q", s.cfg.ReplicaID, vec.String(), min),
			Vector: vec.String(),
		})
		return false
	}
	return true
}

// handleFaultClustered is the clustered POST /v1/fault path: originate
// the event into the log (which applies it locally via onApply — fault
// set first, then epoch bump) and eagerly push it to every peer before
// answering, so the acknowledged vector is usually already applied
// everywhere. The response carries the new vector; a client that
// stamps it as X-Bgq-Min-Vector on its next request gets
// read-your-writes across the whole cluster.
func (cp *clusterPlane) handleFaultClustered(w http.ResponseWriter, r *http.Request, ev FaultEvent) {
	s := cp.s
	_, _, vec := s.snapshotCluster()
	w.Header().Set(HeaderReplica, s.cfg.ReplicaID)
	// Honoring min-vector here too gives sequential fault posts a
	// well-defined cluster-wide order: each originator has applied every
	// event the client saw acknowledged, so Lamport stamps increase.
	if !s.checkMinVector(w, r, s.cache.Epoch(), vec) {
		return
	}
	cp.node.OriginateFault(r.Context(), ev.Links, ev.Clear)
	epoch, _, vecNow := s.snapshotCluster()
	vs := vecNow.String()
	w.Header().Set(HeaderVector, vs)
	writeJSON(w, http.StatusOK, planEnvelope{Epoch: epoch, Vector: vs})
}

// handleGossip is the peer wire: POST /v1/gossip carries one push-pull
// exchange (cluster.Message in, cluster.Message out).
func (s *Server) handleGossip(w http.ResponseWriter, r *http.Request) {
	if s.clst == nil {
		writeJSON(w, http.StatusNotFound, planEnvelope{Error: "serve: not clustered (start bgqd with -replica-id)"})
		return
	}
	var msg cluster.Message
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 4<<20))
	if err := dec.Decode(&msg); err != nil {
		s.reg.Counter("serve/errors").Inc()
		writeJSON(w, http.StatusBadRequest, planEnvelope{Error: fmt.Sprintf("serve: bad gossip body: %v", err)})
		return
	}
	writeJSON(w, http.StatusOK, s.clst.node.HandleMessage(msg))
}

// ClusterStatus is the GET /v1/cluster body: where this replica stands
// in the fault-epoch plane.
type ClusterStatus struct {
	Replica string   `json:"replica"`
	Peers   []string `json:"peers"`
	// Vector is the applied fault-epoch vector the serve layer vouches
	// for (canonical string form).
	Vector string `json:"vector"`
	// Events is the number of fault events applied; FaultLinks the size
	// of the effective fault set they replay to.
	Events     int    `json:"events_applied"`
	FaultLinks int    `json:"fault_links"`
	Epoch      uint64 `json:"epoch"`
}

func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	if s.clst == nil {
		writeJSON(w, http.StatusNotFound, planEnvelope{Error: "serve: not clustered (start bgqd with -replica-id)"})
		return
	}
	epoch, faults, vec := s.snapshotCluster()
	writeJSON(w, http.StatusOK, ClusterStatus{
		Replica:    s.cfg.ReplicaID,
		Peers:      s.clst.node.Peers(),
		Vector:     vec.String(),
		Events:     s.clst.node.Log().EventsApplied(),
		FaultLinks: len(faults),
		Epoch:      epoch,
	})
}

// httpGossipTransport carries gossip exchanges over POST /v1/gossip
// through the client layer, so peers speak every address form a Client
// does (TCP and unix sockets). One Client is built per peer address and
// cached.
type httpGossipTransport struct {
	mu    sync.Mutex
	peers map[string]*Client
}

func newHTTPGossipTransport() *httpGossipTransport {
	return &httpGossipTransport{peers: make(map[string]*Client)}
}

func (t *httpGossipTransport) peer(addr string) (*Client, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if c, ok := t.peers[addr]; ok {
		return c, nil
	}
	c, err := NewClient(addr)
	if err != nil {
		return nil, err
	}
	// A bounded per-exchange timeout so one dead peer cannot stall a
	// broadcast behind TCP timeouts.
	c.hc.Timeout = 2 * time.Second
	t.peers[addr] = c
	return c, nil
}

func (t *httpGossipTransport) Exchange(ctx context.Context, peerAddr string, msg cluster.Message) (cluster.Message, error) {
	c, err := t.peer(peerAddr)
	if err != nil {
		return cluster.Message{}, err
	}
	raw, err := json.Marshal(msg)
	if err != nil {
		return cluster.Message{}, err
	}
	return fetch(ctx, c, http.MethodPost, "/v1/gossip", raw, decodeJSON[cluster.Message])
}
