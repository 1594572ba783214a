package main

import (
	"fmt"

	"bgqflow/internal/cluster"
	"bgqflow/internal/scenario"
	"bgqflow/internal/serve"
)

// posted is one acknowledged fault event: the (origin, seq) the cluster
// stamped it with, and its payload.
type posted struct {
	Origin string
	Seq    uint64
	Event  serve.FaultEvent
}

// faultLog is the benchmark's record of its own fault posts. The
// benchmark is the only poster and posts serially, each post demanding
// the vector of the one before, so every originator has applied all
// earlier events and the cluster's canonical (Lamport) order is the post
// order. The fault set a replica planned under is therefore the replay,
// in post order, of the posts its served vector names.
type faultLog []posted

// stampOf returns the one event an acknowledgement added to the
// client's demanded vector: exactly one origin must advance by one.
func stampOf(before, after string) (string, uint64, error) {
	b, err := cluster.ParseVector(before)
	if err != nil {
		return "", 0, err
	}
	a, err := cluster.ParseVector(after)
	if err != nil {
		return "", 0, err
	}
	var origin string
	for o, seq := range a {
		if seq == b[o] {
			continue
		}
		if seq != b[o]+1 || origin != "" {
			return "", 0, fmt.Errorf("fault ack moved vector %q to %q, want one origin +1", before, after)
		}
		origin = o
	}
	if origin == "" {
		return "", 0, fmt.Errorf("fault ack left vector %q unchanged", before)
	}
	return origin, a[origin], nil
}

// faultsFor replays the posts named by v, in post order.
func (l faultLog) faultsFor(v cluster.Vector) []scenario.FailLink {
	var faults []scenario.FailLink
	for _, p := range l {
		if p.Seq > v[p.Origin] {
			continue
		}
		if p.Event.Clear {
			faults = faults[:0]
		}
		faults = append(faults, p.Event.Links...)
	}
	return faults
}
