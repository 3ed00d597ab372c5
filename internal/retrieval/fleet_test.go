package retrieval

// Integration tests for the fleet observability plane: a live multi-node
// TCP cluster whose merged fleet view must equal the arithmetic sum of
// the per-node snapshots, byte-stable JSON for idle re-snapshots, and
// graceful degradation against nodes whose transport cannot pull stats.

import (
	"encoding/json"
	"errors"
	"testing"
	"time"

	"duo/internal/telemetry"
)

// fleetCluster builds a 3-node TCP cluster with one telemetry registry
// per node (as retrievald runs it) plus a coordinator registry.
func fleetCluster(t *testing.T) (c *Cluster, sizes []int, stop func()) {
	t.Helper()
	m, corpus := chaosSystem(t)
	const n = 3
	parts := make([][]int, n)
	for i := range corpus.Train {
		parts[i%n] = append(parts[i%n], i)
	}
	var nodes []Transport
	var cleanups []func()
	for i := 0; i < n; i++ {
		reg := telemetry.New()
		var vids []int = parts[i]
		gallery := corpus.Train[:0:0]
		for _, vi := range vids {
			gallery = append(gallery, corpus.Train[vi])
		}
		shard := NewShard(m, gallery)
		shard.SetTelemetry(reg)
		sizes = append(sizes, shard.Size())
		srv, err := ServeNodeConfig("127.0.0.1:0", shard, NodeServerConfig{Telemetry: reg})
		if err != nil {
			t.Fatal(err)
		}
		tr, err := DialNodeConfig(srv.Addr(), TCPConfig{Timeout: 10 * time.Second})
		if err != nil {
			srv.Close()
			t.Fatal(err)
		}
		nodes = append(nodes, tr)
		cleanups = append(cleanups, func() { tr.Close(); srv.Close() })
	}
	cl := NewCluster(m, nodes)
	cl.SetTelemetry(telemetry.New())
	// Exercise the serving path so every node has counters to merge.
	for round := 0; round < 2; round++ {
		for _, v := range corpus.Test {
			if _, err := cl.RetrieveErr(v, 4); err != nil {
				t.Fatal(err)
			}
		}
	}
	return cl, sizes, func() {
		for _, f := range cleanups {
			f()
		}
	}
}

// TestFleetSnapshotMergesExactly is the acceptance check: over a live
// 3-node TCP cluster, every merged fleet counter equals the arithmetic
// sum of the per-node snapshots, and bucketed histograms merge count-
// exactly.
func TestFleetSnapshotMergesExactly(t *testing.T) {
	cl, sizes, stop := fleetCluster(t)
	defer stop()

	view, err := cl.FleetSnapshot(false)
	if err != nil {
		t.Fatal(err)
	}
	if view.Nodes != 3 || view.Reachable != 3 {
		t.Fatalf("fleet reach = %d/%d, want 3/3 (per-node: %+v)", view.Reachable, view.Nodes, view.PerNode)
	}
	wantSize := 0
	for _, s := range sizes {
		wantSize += s
	}
	if view.Size != wantSize {
		t.Errorf("fleet size = %d, want %d", view.Size, wantSize)
	}

	// Every fleet counter is the arithmetic sum of the per-node values —
	// both directions, so the merge neither drops nor invents names.
	sums := map[string]int64{}
	for _, fn := range view.PerNode {
		if fn.Snapshot == nil {
			t.Fatalf("node %d: no snapshot (%+v)", fn.Node, fn)
		}
		if fn.Addr == "" {
			t.Errorf("node %d: no address label", fn.Node)
		}
		for k, v := range fn.Snapshot.Counters {
			sums[k] += v
		}
	}
	if len(sums) == 0 {
		t.Fatal("no per-node counters: serving traffic left no telemetry")
	}
	for k, want := range sums {
		if got := view.Fleet.Counters[k]; got != want {
			t.Errorf("fleet counter %s = %d, want per-node sum %d", k, got, want)
		}
	}
	for k := range view.Fleet.Counters {
		if _, ok := sums[k]; !ok {
			t.Errorf("fleet counter %s not present on any node", k)
		}
	}

	// The scan histogram merges count-exactly across nodes.
	var histSum int64
	for _, fn := range view.PerNode {
		histSum += fn.Snapshot.Histograms["shard.scan_ns"].Count
	}
	if got := view.Fleet.Histograms["shard.scan_ns"].Count; got != histSum || histSum == 0 {
		t.Errorf("fleet scan_ns count = %d, want per-node sum %d (> 0)", got, histSum)
	}

	// The coordinator section stays separate from the node merge.
	if view.Coordinator == nil {
		t.Fatal("no coordinator section")
	}
	if got := view.Coordinator.Counters["cluster.queries"]; got == 0 {
		t.Error("coordinator section missing cluster.queries")
	}
	if _, merged := view.Fleet.Counters["cluster.queries"]; merged {
		t.Error("coordinator counters leaked into the node merge")
	}

	// Each node reports from its own registry, not a share of a lumped one:
	// every scatter reached every node exactly once, so every node's own
	// admission tally equals the coordinator's query count.
	for _, fn := range view.PerNode {
		if got, want := fn.Snapshot.Counters["node.admission.admitted"], view.Coordinator.Counters["cluster.queries"]; got != want {
			t.Errorf("node %d admitted = %d, want its own tally %d (shared-registry lumping?)", fn.Node, got, want)
		}
	}
}

// TestFleetSnapshotByteStable: two snapshots of an idle fleet marshal to
// identical JSON — the /fleet.json determinism contract.
func TestFleetSnapshotByteStable(t *testing.T) {
	cl, _, stop := fleetCluster(t)
	defer stop()

	take := func() []byte {
		t.Helper()
		view, err := cl.FleetSnapshot(false)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(view)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := take(), take()
	if string(a) != string(b) {
		t.Errorf("idle fleet snapshots differ:\n%s\nvs\n%s", a, b)
	}
}

// TestFleetSnapshotDegradesOnUnsupportedNode: a node whose transport is
// not a StatsPuller becomes an Err entry, not a failed view.
func TestFleetSnapshotDegradesOnUnsupportedNode(t *testing.T) {
	m, corpus := chaosSystem(t)
	reg := telemetry.New()
	shard := NewShard(m, corpus.Train)
	shard.SetTelemetry(reg)
	cl := NewCluster(m, []Transport{
		&LocalTransport{Shard: shard, Telemetry: reg},
		&stubTransport{rs: stubResults(4)}, // no StatsPuller
	})
	cl.Retrieve(corpus.Test[0], 4)

	view, err := cl.FleetSnapshot(false)
	if err != nil {
		t.Fatal(err)
	}
	if view.Reachable != 1 || view.Nodes != 2 {
		t.Fatalf("reach = %d/%d, want 1/2", view.Reachable, view.Nodes)
	}
	if view.PerNode[1].Err == "" || view.PerNode[1].Snapshot != nil {
		t.Errorf("unsupported node entry = %+v, want Err set and no snapshot", view.PerNode[1])
	}
	if got, want := view.Fleet.Counters["shard.queries"], view.PerNode[0].Snapshot.Counters["shard.queries"]; got != want {
		t.Errorf("fleet merge = %d, want the one reachable node's %d", got, want)
	}
}

// gateIndex blocks every scan until released, so a test can hold a
// node's only in-flight slot at a deterministic point.
type gateIndex struct {
	GalleryIndex
	entered chan struct{}
	release chan struct{}
}

func (g *gateIndex) Nearest(feat []float64, m int) []Result {
	g.entered <- struct{}{}
	<-g.release
	return g.GalleryIndex.Nearest(feat, m)
}

// TestStatsBypassesAdmission: a saturated node sheds scans but still
// answers the stats probe — observability stays readable under overload.
func TestStatsBypassesAdmission(t *testing.T) {
	m, corpus := chaosSystem(t)
	reg := telemetry.New()
	gate := &gateIndex{
		GalleryIndex: NewShard(m, corpus.Train),
		entered:      make(chan struct{}, 1),
		release:      make(chan struct{}),
	}
	srv, err := ServeNodeConfig("127.0.0.1:0", gate, NodeServerConfig{
		Telemetry: reg,
		Admission: AdmissionConfig{MaxInFlight: 1, MaxQueue: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tr, err := DialNodeConfig(srv.Addr(), TCPConfig{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	// Occupy the node's only slot, then saturate it.
	feat := make([]float64, 12) // the chaosSystem extractor's embedding dim
	done := make(chan error, 1)
	go func() {
		_, err := tr.Nearest(feat, 1)
		done <- err
	}()
	<-gate.entered
	if _, err := tr.Nearest(feat, 1); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("scan on saturated node: err = %v, want ErrOverloaded", err)
	}
	st, err := tr.Stats(false)
	if err != nil {
		t.Fatalf("stats on saturated node: %v", err)
	}
	if st.Snapshot.Counters["node.admission.shed"] == 0 {
		t.Errorf("shed counter missing from snapshot under overload: %+v", st.Snapshot.Counters)
	}
	close(gate.release)
	if err := <-done; err != nil {
		t.Fatalf("released scan failed: %v", err)
	}
}
