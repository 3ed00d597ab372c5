package retrieval

import (
	"errors"
	"sync"

	"duo/internal/telemetry"
)

// This file is the node-side half of the fleet observability plane: a
// stats probe is a request frame kind (wire.go) answered with the node's
// NodeStats JSON, so a coordinator pulls every node's telemetry over the
// connections it already holds. It is answered before admission control —
// observability must stay readable while a node is shedding, or the fleet
// view goes dark exactly when an operator needs it.

// ErrStatsUnsupported is returned when a node cannot report stats: its
// transport is not a StatsPuller, or its probe reply carried no payload.
var ErrStatsUnsupported = errors.New("retrieval: node does not support stats")

// NodeStats is one node's self-report, as surfaced to coordinator-side
// callers. Its JSON is the payload of a stats probe's reply frame.
type NodeStats struct {
	// Snapshot is never nil on success.
	Snapshot *telemetry.Snapshot
	// Size is the node's indexed entry count.
	Size int
	// Addr labels the node ("local" for in-process transports).
	Addr string
}

// StatsPuller is the optional Transport extension for the fleet
// observability plane. Decorators (retry, breaker) forward it unguarded:
// a stats pull is an observability probe, not serving traffic, so it is
// never retried, never counted against the breaker, and still flows
// while the breaker holds the node open — a fleet view of a sick node is
// worth more than one of a healthy node.
type StatsPuller interface {
	// Stats returns the node's telemetry snapshot and index size.
	Stats(includeRings bool) (NodeStats, error)
}

// pullStats dispatches to the transport's stats extension when it has
// one, and reports ErrStatsUnsupported otherwise.
func pullStats(t Transport, includeRings bool) (NodeStats, error) {
	if sp, ok := t.(StatsPuller); ok {
		return sp.Stats(includeRings)
	}
	return NodeStats{}, ErrStatsUnsupported
}

// FleetNode is one node's entry in a FleetView: its self-report, or the
// error that prevented one.
type FleetNode struct {
	// Node is the node's index in the cluster.
	Node int `json:"node"`
	// Addr and Size echo the node's self-report.
	Addr string `json:"addr,omitempty"`
	Size int    `json:"size,omitempty"`
	// Err is the pull failure, "" on success. A node whose transport
	// cannot pull stats reports ErrStatsUnsupported here rather than
	// failing the whole view.
	Err string `json:"err,omitempty"`
	// Snapshot is the node's telemetry (nil when Err is set).
	Snapshot *telemetry.Snapshot `json:"snapshot,omitempty"`
}

// FleetView is the cluster-wide observability rollup behind /fleet.json:
// the deterministic merge of every reachable node's snapshot, with the
// per-node breakdown retained alongside (merging loses per-node skew —
// a fleet p99 cannot localize a slow node, its per-node snapshot can).
type FleetView struct {
	// Nodes and Reachable count cluster nodes and successful pulls.
	Nodes     int `json:"nodes"`
	Reachable int `json:"reachable"`
	// Size is the summed index size of the reachable nodes.
	Size int `json:"size"`
	// Fleet is the merged node telemetry (telemetry.MergeAll over the
	// reachable nodes, in node order).
	Fleet *telemetry.Snapshot `json:"fleet"`
	// Coordinator is the coordinator's own registry snapshot, kept
	// separate from the node merge: cluster.* metrics describe the
	// scatter/gather layer, not any data node.
	Coordinator *telemetry.Snapshot `json:"coordinator,omitempty"`
	// PerNode is the per-node breakdown, indexed by node.
	PerNode []FleetNode `json:"per_node"`
}

// FleetSnapshot pulls every node's stats concurrently and folds them
// into a FleetView. Unreachable (or stats-unsupported) nodes degrade to
// an Err entry in the breakdown rather than failing the view — the
// observability plane is best-effort by design. The only error is a
// merge failure (histogram layout mismatch across nodes), which means
// the fleet is running mixed incompatible builds and the merged view
// would be a lie.
func (c *Cluster) FleetSnapshot(includeRings bool) (*FleetView, error) {
	view := &FleetView{Nodes: len(c.nodes), PerNode: make([]FleetNode, len(c.nodes))}
	var wg sync.WaitGroup
	for i, node := range c.nodes {
		view.PerNode[i].Node = i
		wg.Add(1)
		go func(i int, node Transport) {
			defer wg.Done()
			st, err := pullStats(node, includeRings)
			if err != nil {
				view.PerNode[i].Err = err.Error()
				return
			}
			view.PerNode[i].Addr = st.Addr
			view.PerNode[i].Size = st.Size
			view.PerNode[i].Snapshot = st.Snapshot
		}(i, node)
	}
	wg.Wait()

	snaps := make([]*telemetry.Snapshot, 0, len(view.PerNode))
	for i := range view.PerNode {
		if view.PerNode[i].Err != "" {
			continue
		}
		view.Reachable++
		view.Size += view.PerNode[i].Size
		snaps = append(snaps, view.PerNode[i].Snapshot)
	}
	fleet, err := telemetry.MergeAll(snaps...)
	if err != nil {
		return nil, err
	}
	view.Fleet = fleet

	c.mu.Lock()
	reg := c.reg
	c.mu.Unlock()
	if reg != nil {
		view.Coordinator = reg.Snapshot()
		if !includeRings {
			view.Coordinator.Rings = map[string][]float64{}
		}
	}
	return view, nil
}
