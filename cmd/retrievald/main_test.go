package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/gob"
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

func testPQConfig() retrieval.PQConfig {
	return retrieval.PQConfig{Subspaces: 4, Centroids: 4, KMeansIters: 10, Seed: 2, RerankDepth: 8}
}

// loadOrBuildCases is the load-or-rebuild contract, one table for both
// engines. prepare puts the case's file (or obstacle) under dir and
// returns the -indexfile path; every case but a hard failure must come
// back with a 4-entry index of the asked engine, loaded from disk exactly
// when wantLoaded, leave a file that the next call loads, and leave no
// temp droppings.
var loadOrBuildCases = map[string]struct {
	prepare    func(t *testing.T, dir, engine string, sys *duo.System) string
	wantErr    bool
	wantLoaded bool
}{
	"missing file builds": {
		prepare: func(t *testing.T, dir, _ string, _ *duo.System) string { return filepath.Join(dir, "idx") },
	},
	"corrupt file rebuilds": {
		// A garbage index (e.g. a crash mid-write under a non-atomic
		// persist) must warn and rebuild, not fail or load garbage.
		prepare: func(t *testing.T, dir, _ string, _ *duo.System) string {
			return writeTestFile(t, filepath.Join(dir, "idx"), []byte("not an index"))
		},
	},
	"unreadable path hard-fails": {
		// A path under a regular file fails with ENOTDIR — an environment
		// problem, which must be reported, not conflated with "missing
		// index, rebuild silently".
		prepare: func(t *testing.T, dir, _ string, _ *duo.System) string {
			return filepath.Join(writeTestFile(t, filepath.Join(dir, "blocker"), []byte("x")), "idx")
		},
		wantErr: true,
	},
	"round trip loads": {
		prepare: func(t *testing.T, dir, engine string, sys *duo.System) string {
			return buildTestIndex(t, filepath.Join(dir, "idx"), engine, sys)
		},
		wantLoaded: true,
	},
	"kind mismatch rebuilds": {
		// A valid index of the other engine is as unusable as a corrupt one.
		prepare: func(t *testing.T, dir, engine string, sys *duo.System) string {
			other := map[string]string{"exact": "pq", "pq": "exact"}[engine]
			return buildTestIndex(t, filepath.Join(dir, "idx"), other, sys)
		},
	},
	"old gob file rebuilds": {
		// The exact index file format before the flat layout: a gob record.
		prepare: func(t *testing.T, dir, _ string, _ *duo.System) string {
			var buf bytes.Buffer
			rec := struct {
				IDs    []string
				Labels []int
				Dim    int
				Feats  []float64
			}{[]string{"a", "b", "c"}, []int{0, 1, 2}, 2, []float64{1, 2, 3, 4, 5, 6}}
			if err := gob.NewEncoder(&buf).Encode(rec); err != nil {
				t.Fatal(err)
			}
			return writeTestFile(t, filepath.Join(dir, "idx"), buf.Bytes())
		},
	},
}

func writeTestFile(t *testing.T, path string, data []byte) string {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// buildTestIndex persists a 4-entry index of engine at path.
func buildTestIndex(t *testing.T, path, engine string, sys *duo.System) string {
	t.Helper()
	idx, _, err := loadOrBuildIndex(path, engine, sys, sys.Corpus.Train[:4], testPQConfig())
	if err != nil {
		t.Fatal(err)
	}
	idx.Close()
	return path
}

// runLoadOrBuildCases runs the named cases of loadOrBuildCases for engine.
func runLoadOrBuildCases(t *testing.T, engine string, names ...string) {
	if testing.Short() {
		t.Skip("short mode")
	}
	sys, err := newTestSystem()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		tc, ok := loadOrBuildCases[name]
		if !ok {
			t.Fatalf("no case %q", name)
		}
		t.Run(engine+"/"+name, func(t *testing.T) {
			dir := t.TempDir()
			path := tc.prepare(t, dir, engine, sys)
			idx, loaded, err := loadOrBuildIndex(path, engine, sys, sys.Corpus.Train[:4], testPQConfig())
			if tc.wantErr {
				if err == nil {
					idx.Close()
					t.Fatal("error not surfaced")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer idx.Close()
			if loaded != tc.wantLoaded || idx.Size() != 4 || engineOf(idx) != engine {
				t.Fatalf("got a %d-entry %s index, loaded=%v; want 4 entries, %s, loaded=%v",
					idx.Size(), engineOf(idx), loaded, engine, tc.wantLoaded)
			}
			// Whatever was on disk, the file there now loads as this engine.
			again, loaded, err := loadOrBuildIndex(path, engine, sys, nil, testPQConfig())
			if err != nil || !loaded || again.Size() != 4 {
				t.Fatalf("index at %s did not load back: loaded=%v, err=%v", path, loaded, err)
			}
			again.Close()
			entries, err := os.ReadDir(dir)
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
		})
	}
}

func TestLoadOrBuildShardCorruptIndexRebuilds(t *testing.T) {
	runLoadOrBuildCases(t, "exact", "corrupt file rebuilds")
}

func TestLoadOrBuildShardReportsUnreadablePath(t *testing.T) {
	runLoadOrBuildCases(t, "exact", "unreadable path hard-fails")
}

func TestLoadOrBuildShardRoundTrip(t *testing.T) {
	runLoadOrBuildCases(t, "exact", "round trip loads")
}

func TestLoadOrBuildPQRoundTrip(t *testing.T) {
	runLoadOrBuildCases(t, "pq", "round trip loads")
}

func TestLoadOrBuildPQCorruptIndexRebuilds(t *testing.T) {
	runLoadOrBuildCases(t, "pq", "corrupt file rebuilds")
}

func TestLoadOrBuildPQReportsUnreadablePath(t *testing.T) {
	runLoadOrBuildCases(t, "pq", "unreadable path hard-fails")
}

// TestLoadOrBuildRebuildsUnusableFiles covers the cases without a per-engine
// test of their own, for both engines.
func TestLoadOrBuildRebuildsUnusableFiles(t *testing.T) {
	for _, engine := range []string{"exact", "pq"} {
		runLoadOrBuildCases(t, engine, "missing file builds", "kind mismatch rebuilds", "old gob file rebuilds")
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
	idx, _, err := loadOrBuildIndex("", "pq", sys, sys.Corpus.Train[:4], cfg)
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
