package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"expvar"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"duo"
	"duo/internal/retrieval"
	"duo/internal/telemetry"
	"duo/internal/trace"
)

// newTestSystem builds the deterministic system the daemon uses.
func newTestSystem() (*duo.System, error) {
	return duo.NewSystem(duo.SystemOptions{Seed: 1})
}

func TestUnknownMode(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if err := run(context.Background(), []string{"-mode", "bogus"}, io.Discard); err == nil {
		t.Error("unknown mode accepted")
	}
}

func TestQueryNeedsNodes(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if err := run(context.Background(), []string{"-mode", "query"}, io.Discard); err == nil {
		t.Error("query mode without -nodes accepted")
	}
}

func TestNodeBadShardSpec(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if err := run(context.Background(), []string{"-mode", "node", "-shard", "5/2"}, io.Discard); err == nil {
		t.Error("out-of-range shard accepted")
	}
	if err := run(context.Background(), []string{"-mode", "node", "-shard", "nonsense"}, io.Discard); err == nil {
		t.Error("malformed shard accepted")
	}
}

// httpGet fetches a URL from the admin server and returns the body.
func httpGet(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestAdminEndpointsServeAllGroups stands up the -admin server exactly as
// run() does and checks each endpoint group: the registry snapshot at
// /metrics.json (counters, gauges, histograms), the expvar dump at
// /debug/vars, and the pprof index at /debug/pprof/.
func TestAdminEndpointsServeAllGroups(t *testing.T) {
	reg := telemetry.New()
	reg.Counter("cluster.queries").Add(3)
	reg.Gauge("cluster.node0.breaker_state").Set(1)
	reg.Latency("retrieval.scan_ns").Observe(1.5e6)

	tr := trace.New("admin-test")
	tr.Start(nil, "warmup").End()

	srv, addr, _, err := serveAdmin("127.0.0.1:0", reg, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + addr.String()

	var snap telemetry.Snapshot
	if err := json.Unmarshal(httpGet(t, base+"/metrics.json"), &snap); err != nil {
		t.Fatalf("/metrics.json is not valid JSON: %v", err)
	}
	if snap.Counters["cluster.queries"] != 3 {
		t.Errorf("counters: got %v, want cluster.queries=3", snap.Counters)
	}
	if snap.Gauges["cluster.node0.breaker_state"] != 1 {
		t.Errorf("gauges: got %v, want cluster.node0.breaker_state=1", snap.Gauges)
	}
	if st, ok := snap.Histograms["retrieval.scan_ns"]; !ok || st.Count != 1 {
		t.Errorf("histograms: got %v, want retrieval.scan_ns with count 1", snap.Histograms)
	}

	var vars map[string]json.RawMessage
	if err := json.Unmarshal(httpGet(t, base+"/debug/vars"), &vars); err != nil {
		t.Fatalf("/debug/vars is not valid JSON: %v", err)
	}
	if _, ok := vars["cmdline"]; !ok {
		t.Error("/debug/vars is missing the standard cmdline var")
	}

	if body := httpGet(t, base+"/debug/pprof/"); !strings.Contains(string(body), "goroutine") {
		t.Error("/debug/pprof/ index does not list profiles")
	}

	recs, err := trace.ReadJSONL(bytes.NewReader(httpGet(t, base+"/trace.jsonl")))
	if err != nil {
		t.Fatalf("/trace.jsonl is not valid span JSONL: %v", err)
	}
	if len(recs) != 1 || recs[0].Name != "warmup" {
		t.Errorf("/trace.jsonl served %+v, want the one finished warmup span", recs)
	}
}

func TestAdminBadAddressFails(t *testing.T) {
	if _, _, _, err := serveAdmin("256.0.0.1:http", telemetry.New(), trace.New("t")); err == nil {
		t.Error("unlistenable admin address accepted")
	}
}

// TestQueryModeWithAdminPublishesTelemetry runs a real node + query pair
// through run() with -admin enabled and then checks, via the globally
// published expvar, that the query-path instrumentation actually fired:
// one cluster query, one per-node success, breaker closed.
func TestQueryModeWithAdminPublishesTelemetry(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	sys, err := newTestSystem()
	if err != nil {
		t.Fatal(err)
	}
	node, err := retrieval.ServeNode("127.0.0.1:0", retrieval.NewShard(sys.VictimModel(), sys.Corpus.Train[:4]))
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	err = run(context.Background(), []string{
		"-mode", "query", "-nodes", node.Addr(), "-index", "0", "-m", "3",
		"-admin", "127.0.0.1:0",
	}, io.Discard)
	if err != nil {
		t.Fatalf("query mode with -admin: %v", err)
	}

	v := expvar.Get("duo")
	if v == nil {
		t.Fatal("-admin did not publish the duo expvar")
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal([]byte(v.String()), &snap); err != nil {
		t.Fatalf("duo expvar is not a snapshot: %v", err)
	}
	if snap.Counters["cluster.queries"] != 1 {
		t.Errorf("cluster.queries = %d, want 1", snap.Counters["cluster.queries"])
	}
	if snap.Counters["cluster.node0.ok"] != 1 {
		t.Errorf("cluster.node0.ok = %d, want 1", snap.Counters["cluster.node0.ok"])
	}
	if got := snap.Gauges["cluster.node0.breaker_state"]; got != 0 {
		t.Errorf("cluster.node0.breaker_state = %d, want closed (0)", got)
	}
	if _, ok := snap.Histograms["cluster.gather_ns"]; !ok {
		t.Error("cluster.gather_ns histogram missing from snapshot")
	}
}

// TestNodeModeServesUntilCancelled drives the multi-process recipe inside
// one test process: a real `-mode node` on a free port, a `-mode query`
// (with -hold, under an already-cancelled context, so it prints and leaves)
// against it, then cancel — run must return nil and the port must be closed.
// Nothing is backgrounded beyond the test's own goroutines.
func TestNodeModeServesUntilCancelled(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pr, pw := io.Pipe()
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-mode", "node", "-addr", "127.0.0.1:0", "-shard", "0/1", "-runtime-stats", "0"}, pw)
		pw.Close()
	}()
	var addr string
	for sc := bufio.NewScanner(pr); addr == "" && sc.Scan(); {
		if line := sc.Text(); strings.HasPrefix(line, "node serving shard") {
			_, addr, _ = strings.Cut(line, ") on ")
		}
	}
	if addr == "" {
		t.Fatalf("node exited before serving: %v", <-done)
	}
	go io.Copy(io.Discard, pr) // keep the node's later prints from blocking it

	left, leave := context.WithCancel(context.Background())
	leave()
	var out bytes.Buffer
	if err := run(left, []string{"-mode", "query", "-nodes", addr, "-policy", "all", "-index", "0", "-m", "3", "-hold"}, &out); err != nil {
		t.Fatalf("query against the node: %v", err)
	}
	for _, want := range []string{"top-3", " 3. ", "holding"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("query output lacks %q:\n%s", want, out.String())
		}
	}

	cancel()
	if err := <-done; err != nil {
		t.Errorf("cancelled node returned %v, want nil", err)
	}
	if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		c.Close()
		t.Errorf("node port %s still accepts connections after run returned", addr)
	}
}

func TestParsePolicy(t *testing.T) {
	for _, ok := range []string{"besteffort", "best-effort", "all", "require-all", "quorum=2"} {
		if _, err := parsePolicy(ok); err != nil {
			t.Errorf("parsePolicy(%q): %v", ok, err)
		}
	}
	for _, bad := range []string{"", "quorum=0", "quorum=x", "most"} {
		if _, err := parsePolicy(bad); err == nil {
			t.Errorf("parsePolicy(%q) accepted", bad)
		}
	}
}

func TestLoadOrBuildShardCorruptIndexRebuilds(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	sys, err := newTestSystem()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "shard.idx")
	// A truncated/garbage index (e.g. a crash mid-write under the old
	// non-atomic persist) must warn and rebuild, not fail or load garbage.
	if err := os.WriteFile(path, []byte("not a gob index"), 0o644); err != nil {
		t.Fatal(err)
	}
	shard, fromDisk, err := loadOrBuildShard(path, sys, sys.Corpus.Train[:3])
	if err != nil {
		t.Fatalf("corrupt index was not rebuilt: %v", err)
	}
	if fromDisk {
		t.Error("corrupt index reported as loaded from disk")
	}
	if shard.Size() != 3 {
		t.Errorf("rebuilt shard has %d entries, want 3", shard.Size())
	}
	// The rebuild overwrote the corrupt file atomically: it now loads.
	loaded, fromDisk, err := loadOrBuildShard(path, sys, nil)
	if err != nil || !fromDisk {
		t.Fatalf("repaired index did not load: fromDisk=%v, err=%v", fromDisk, err)
	}
	if loaded.Size() != 3 {
		t.Errorf("repaired index has %d entries, want 3", loaded.Size())
	}
	// Atomic persist leaves no temp droppings behind.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Errorf("index dir has stray files: %v", names)
	}
}

func TestLoadOrBuildShardReportsUnreadablePath(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	sys, err := newTestSystem()
	if err != nil {
		t.Fatal(err)
	}
	// A path under a regular file fails with ENOTDIR — an environment
	// problem, which must be reported, not conflated with "missing index,
	// rebuild silently".
	blocker := filepath.Join(t.TempDir(), "blocker")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := loadOrBuildShard(filepath.Join(blocker, "shard.idx"), sys, sys.Corpus.Train[:2]); err == nil {
		t.Error("unreadable index path did not surface an error")
	}
}

func TestLoadOrBuildShardRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	sys, err := newTestSystem()
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/shard.idx"
	built, fromDisk, err := loadOrBuildShard(path, sys, sys.Corpus.Train[:4])
	if err != nil {
		t.Fatal(err)
	}
	if fromDisk {
		t.Error("first call should build, not load")
	}
	loaded, fromDisk, err := loadOrBuildShard(path, sys, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !fromDisk {
		t.Error("second call should load from disk")
	}
	if loaded.Size() != built.Size() {
		t.Errorf("sizes differ: %d vs %d", loaded.Size(), built.Size())
	}
}

func testPQConfig() retrieval.PQConfig {
	return retrieval.PQConfig{Subspaces: 4, Centroids: 4, KMeansIters: 10, Seed: 2, RerankDepth: 8}
}

func TestLoadOrBuildPQRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	sys, err := newTestSystem()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "pq.duopq")
	built, fromDisk, err := loadOrBuildPQ(path, sys, sys.Corpus.Train[:4], testPQConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer built.Close()
	if fromDisk {
		t.Error("first call should build, not load")
	}
	if built.Size() != 4 {
		t.Errorf("built index has %d entries, want 4", built.Size())
	}
	loaded, fromDisk, err := loadOrBuildPQ(path, sys, nil, testPQConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	if !fromDisk {
		t.Error("second call should load from disk")
	}
	if loaded.Size() != built.Size() {
		t.Errorf("sizes differ: %d vs %d", loaded.Size(), built.Size())
	}
}

func TestLoadOrBuildPQCorruptIndexRebuilds(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	sys, err := newTestSystem()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "pq.duopq")
	if err := os.WriteFile(path, []byte("not a pq index"), 0o644); err != nil {
		t.Fatal(err)
	}
	idx, fromDisk, err := loadOrBuildPQ(path, sys, sys.Corpus.Train[:4], testPQConfig())
	if err != nil {
		t.Fatalf("corrupt index was not rebuilt: %v", err)
	}
	defer idx.Close()
	if fromDisk {
		t.Error("corrupt index reported as loaded from disk")
	}
	// The rebuild overwrote the file atomically: it now loads, and the
	// directory holds no temp droppings.
	repaired, fromDisk, err := loadOrBuildPQ(path, sys, nil, testPQConfig())
	if err != nil || !fromDisk {
		t.Fatalf("repaired index did not load: fromDisk=%v, err=%v", fromDisk, err)
	}
	defer repaired.Close()
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Errorf("index dir has stray files: %v", names)
	}
}

func TestLoadOrBuildPQReportsUnreadablePath(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	sys, err := newTestSystem()
	if err != nil {
		t.Fatal(err)
	}
	// ENOTDIR is an environment problem, not a missing-or-damaged index;
	// it must surface instead of triggering a silent rebuild.
	blocker := filepath.Join(t.TempDir(), "blocker")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := loadOrBuildPQ(filepath.Join(blocker, "pq.duopq"), sys, sys.Corpus.Train[:2], testPQConfig()); err == nil {
		t.Error("unreadable index path did not surface an error")
	}
}

// TestQueryAgainstPQNode serves a product-quantized index behind the same
// TCP node protocol the exact shards use and runs a real CLI query against
// it — the GalleryIndex seam, exercised end to end.
func TestQueryAgainstPQNode(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	sys, err := newTestSystem()
	if err != nil {
		t.Fatal(err)
	}
	cfg := testPQConfig()
	idx, _, err := loadOrBuildPQ("", sys, sys.Corpus.Train[:4], cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	node, err := retrieval.ServeNode("127.0.0.1:0", idx)
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	err = run(context.Background(), []string{"-mode", "query", "-nodes", node.Addr(), "-index", "0", "-m", "3"}, io.Discard)
	if err != nil {
		t.Fatalf("query against pq node: %v", err)
	}
}
