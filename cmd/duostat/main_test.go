package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"duo"
	"duo/internal/retrieval"
	"duo/internal/telemetry"
	"duo/internal/trace"
)

// testView builds a deterministic 3-node fleet view with the counter and
// histogram names retrievald nodes actually publish.
func testView() *retrieval.FleetView {
	node := func(i int, queries, shed int64) retrieval.FleetNode {
		return retrieval.FleetNode{
			Node: i,
			Addr: fmt.Sprintf("127.0.0.1:%d", 7001+i),
			Size: 40,
			Snapshot: &telemetry.Snapshot{
				Counters: map[string]int64{
					"shard.queries":           queries,
					"node.admission.admitted": queries,
					"node.admission.shed":     shed,
				},
				Histograms: map[string]telemetry.HistogramStats{
					"shard.scan_ns": {Count: queries, Mean: 2e6, P50: 1.5e6, P95: 4e6, P99: 6e6},
				},
				Rings: map[string][]float64{},
			},
		}
	}
	view := &retrieval.FleetView{
		Nodes: 3, Reachable: 3, Size: 120,
		PerNode: []retrieval.FleetNode{node(0, 100, 0), node(1, 100, 0), node(2, 100, 7)},
		Coordinator: &telemetry.Snapshot{
			Counters: map[string]int64{"cluster.queries": 300},
			Gauges: map[string]int64{
				"cluster.node0.breaker_state": int64(retrieval.BreakerClosed),
				"cluster.node2.breaker_state": int64(retrieval.BreakerOpen),
			},
		},
	}
	view.Fleet = &telemetry.Snapshot{
		Counters: map[string]int64{
			"shard.queries":           300,
			"node.admission.admitted": 300,
			"node.admission.shed":     7,
		},
		Histograms: map[string]telemetry.HistogramStats{
			"shard.scan_ns": {Count: 300, Mean: 2e6, P50: 1.5e6, P95: 4e6, P99: 6e6},
		},
	}
	return view
}

// serveView stands up an admin-shaped test server whose /fleet.json is
// produced by view(), called once per request.
func serveView(t *testing.T, view func(r *http.Request) *retrieval.FleetView) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/fleet.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(view(r))
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func TestOneShotRendersFleet(t *testing.T) {
	srv := serveView(t, func(*http.Request) *retrieval.FleetView {
		// Ten breaker gauges: past a map's eight-slot first group, so the
		// decoded map walks them in hash order, never by name.
		view := testView()
		for _, n := range []int{9, 4, 7, 1, 5, 3, 8, 6} {
			view.Coordinator.Gauges[fmt.Sprintf("cluster.node%d.breaker_state", n)] = int64(retrieval.BreakerHalfOpen)
		}
		return view
	})
	var buf bytes.Buffer
	if err := run([]string{srv.URL}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"fleet: 3/3 nodes reachable, 120 indexed",
		"127.0.0.1:7003",
		"fleet totals: queries 300, shed 7",
		"breakers: node0 closed, node1 half-open, node2 open, node3 half-open, node4 half-open, " +
			"node5 half-open, node6 half-open, node7 half-open, node8 half-open, node9 half-open\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("one-shot output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "== telemetry ==") {
		t.Error("full telemetry table rendered without -full")
	}
}

func TestOneShotFullRendersMergedTable(t *testing.T) {
	srv := serveView(t, func(*http.Request) *retrieval.FleetView { return testView() })
	var buf bytes.Buffer
	if err := run([]string{"-full", srv.URL}, &buf); err != nil {
		t.Fatal(err)
	}
	if out := buf.String(); !strings.Contains(out, "== telemetry ==") || !strings.Contains(out, "shard.scan_ns") {
		t.Errorf("-full did not render the merged snapshot table:\n%s", out)
	}
}

func TestOneShotMarksUnreachableNode(t *testing.T) {
	srv := serveView(t, func(*http.Request) *retrieval.FleetView {
		view := testView()
		view.Reachable = 2
		view.PerNode[1] = retrieval.FleetNode{Node: 1, Err: retrieval.ErrStatsUnsupported.Error()}
		return view
	})
	var buf bytes.Buffer
	if err := run([]string{srv.URL}, &buf); err != nil {
		t.Fatal(err)
	}
	if out := buf.String(); !strings.Contains(out, "unreachable: retrieval: node does not support stats") {
		t.Errorf("unreachable node not marked:\n%s", out)
	}
}

// TestWatchBurnMathOnShedBurst replays a deterministic counter sequence:
// two clean ticks, then a shed burst that holds the availability burn at
// the page threshold across both windows. With target 0.9 and page burn
// 10, shedding half the traffic burns 0.5/0.1 = 5× per tick and a full
// window of pure sheds pages.
func TestWatchBurnMathOnShedBurst(t *testing.T) {
	// Cumulative (admitted, shed) per poll: baseline, one clean tick, then
	// an all-shed burst. Fast window 2, slow window 2, so by the final
	// tick both windows hold only burst traffic: burn = 1.0/0.1 = 10.
	steps := []struct{ admitted, shed int64 }{
		{100, 0}, {200, 0}, {200, 100}, {200, 200},
	}
	var call atomic.Int64
	srv := serveView(t, func(*http.Request) *retrieval.FleetView {
		i := int(call.Add(1)) - 1
		if i >= len(steps) {
			i = len(steps) - 1
		}
		view := testView()
		view.Fleet.Counters["node.admission.admitted"] = steps[i].admitted
		view.Fleet.Counters["node.admission.shed"] = steps[i].shed
		view.Fleet.Counters["shard.queries"] = steps[i].admitted + steps[i].shed
		return view
	})
	var buf bytes.Buffer
	err := run([]string{
		"-watch", "-interval", "1ms", "-count", "4",
		"-slo-target", "0.9", "-slo-fast", "2", "-slo-slow", "2", "-slo-page", "10",
		srv.URL,
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "(baseline)") {
		t.Errorf("watch output missing the baseline tick:\n%s", out)
	}
	// Tick 2: 100 new queries over the declared 1ms interval.
	if !strings.Contains(out, "(+100, 100000.0 qps)") {
		t.Errorf("watch output missing interval-derived qps:\n%s", out)
	}
	// The final tick's availability line pages at exactly the threshold.
	if !strings.Contains(out, "fast burn  10.00  slow burn  10.00  target 90.00%  PAGE") {
		t.Errorf("watch output missing the paging burn line:\n%s", out)
	}
	// Earlier clean tick must not page.
	if got := strings.Count(out, "PAGE"); got != 1 {
		t.Errorf("PAGE printed %d times, want exactly 1:\n%s", got, out)
	}
}

func TestWatchIsDeterministicAcrossRuns(t *testing.T) {
	take := func() string {
		var call atomic.Int64
		srv := serveView(t, func(*http.Request) *retrieval.FleetView {
			n := call.Add(1)
			view := testView()
			view.Fleet.Counters["shard.queries"] = 100 * n
			view.Fleet.Counters["node.admission.admitted"] = 100 * n
			return view
		})
		var buf bytes.Buffer
		if err := run([]string{"-watch", "-interval", "1ms", "-count", "3", srv.URL}, &buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if a, b := take(), take(); a != b {
		t.Errorf("watch output not deterministic for equal snapshot sequences:\n%s\nvs\n%s", a, b)
	}
}

func TestDiffIdenticalViews(t *testing.T) {
	dir := t.TempDir()
	paths := [2]string{filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")}
	a, _ := json.Marshal(testView())
	// Same state, different formatting: the canonical fingerprint must
	// still compare equal.
	var pretty bytes.Buffer
	json.Indent(&pretty, a, "", "  ")
	os.WriteFile(paths[0], a, 0o644)
	os.WriteFile(paths[1], pretty.Bytes(), 0o644)

	var buf bytes.Buffer
	if err := run([]string{"-diff", paths[0], paths[1]}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "IDENTICAL") {
		t.Errorf("equal views did not compare identical:\n%s", buf.String())
	}
}

func TestDiffMarksChangedCounters(t *testing.T) {
	dir := t.TempDir()
	before, after := testView(), testView()
	after.Fleet.Counters["node.admission.shed"] = 44
	after.Fleet.Histograms["shard.scan_ns"] = telemetry.HistogramStats{Count: 500}
	paths := [2]string{filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")}
	for i, v := range []*retrieval.FleetView{before, after} {
		b, _ := json.Marshal(v)
		if err := os.WriteFile(paths[i], b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := run([]string{"-diff", paths[0], paths[1]}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"fleet views differ",
		"* node.admission.shed",
		"7 → 44",
		"* shard.scan_ns",
		"×300 → ×500",
		"  shard.queries", // unchanged rows keep the blank marker
	} {
		if !strings.Contains(out, want) {
			t.Errorf("diff output missing %q:\n%s", want, out)
		}
	}
}

func TestRecordEmitsTypedJSONL(t *testing.T) {
	tr := trace.New("duostat-test")
	tr.Start(nil, "warmup").End()
	mux := http.NewServeMux()
	mux.HandleFunc("/fleet.json", func(w http.ResponseWriter, r *http.Request) {
		view := testView()
		if r.URL.Query().Get("rings") == "1" {
			// Nine rings, so the decoded map walks them in hash order.
			rings := map[string][]float64{"shard.scan_ms": {1.5, 2.5}}
			for _, c := range "igcaehdb" {
				rings["ring."+string(c)] = []float64{1}
			}
			view.PerNode[0].Snapshot.Rings = rings
		}
		json.NewEncoder(w).Encode(view)
	})
	mux.Handle("/trace.jsonl", trace.Handler(tr))
	srv := httptest.NewServer(mux)
	defer srv.Close()

	var buf bytes.Buffer
	if err := run([]string{"-record", srv.URL}, &buf); err != nil {
		t.Fatal(err)
	}
	types := map[string]int{}
	var rings []flightLine
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var fl flightLine
		if err := json.Unmarshal([]byte(line), &fl); err != nil {
			t.Fatalf("record line is not JSON: %q: %v", line, err)
		}
		types[fl.Type]++
		if fl.Type == "ring" {
			rings = append(rings, fl)
		}
	}
	if types["fleet"] != 1 || types["ring"] != 9 || types["span"] != 1 {
		t.Fatalf("record dump types = %v, want 1 fleet, 9 ring, 1 span", types)
	}
	var names []string
	for _, r := range rings {
		names = append(names, r.Name)
	}
	if got, want := strings.Join(names, " "), "ring.a ring.b ring.c ring.d ring.e ring.g ring.h ring.i shard.scan_ms"; got != want {
		t.Errorf("ring lines in order %q, want sorted %q", got, want)
	}
	r := rings[8]
	if r.Scope != "node0" || r.Name != "shard.scan_ms" || len(r.Samples) != 2 {
		t.Errorf("ring line = %+v, want node0 shard.scan_ms with 2 samples", r)
	}
}

// TestScanStatsPickIsOrderFree: two scan histograms timed once per
// query tie on count, and the pick that supplies the quantile columns
// must not depend on the order the map is walked. The engine's
// *.scan_ns (which covers the re-rank) beats pq.adc_ns, then the smaller
// name wins; a higher count still beats both.
func TestScanStatsPickIsOrderFree(t *testing.T) {
	cases := []struct {
		name  string
		hists map[string]telemetry.HistogramStats
		want  float64 // P50 of the histogram that must be picked
	}{
		{"pq engine", map[string]telemetry.HistogramStats{
			"pq.adc_ns":         {Count: 50, P50: 1e5},
			"retrieval.scan_ns": {Count: 50, P50: 3e5},
		}, 3e5},
		{"exact and pq fleet", map[string]telemetry.HistogramStats{
			"pq.adc_ns":     {Count: 90, P50: 1e5},
			"shard.scan_ns": {Count: 90, P50: 2e5},
		}, 2e5},
		{"two scan_ns", map[string]telemetry.HistogramStats{
			"shard.scan_ns":     {Count: 7, P50: 2e5},
			"pq.adc_ns":         {Count: 7, P50: 1e5},
			"retrieval.scan_ns": {Count: 7, P50: 3e5},
		}, 3e5},
		{"busier adc", map[string]telemetry.HistogramStats{
			"shard.scan_ns": {Count: 10, P50: 2e5},
			"pq.adc_ns":     {Count: 11, P50: 1e5},
		}, 1e5},
	}
	for _, c := range cases {
		snap := &telemetry.Snapshot{Histograms: c.hists}
		differ := 0
		for i := 0; i < 200; i++ {
			if st, ok := scanStats(snap); !ok || st.P50 != c.want {
				differ++
			}
		}
		if differ > 0 {
			t.Errorf("%s: %d of 200 calls picked another histogram than the one with p50 %g", c.name, differ, c.want)
		}
	}
}

func TestRecordNotesMissingTrace(t *testing.T) {
	srv := serveView(t, func(*http.Request) *retrieval.FleetView { return testView() })
	var buf bytes.Buffer
	if err := run([]string{"-record", srv.URL}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"type":"note"`) {
		t.Errorf("record without /trace.jsonl did not degrade to a note:\n%s", buf.String())
	}
}

func TestBadInvocations(t *testing.T) {
	cases := [][]string{
		{},                         // no URL
		{"-diff", "only-one.json"}, // diff wants two files
		{"-watch", "-interval", "0s", "http://x"},    // non-positive interval
		{"-watch", "-slo-target", "1.5", "http://x"}, // invalid target
		{"http://a", "http://b"},                     // too many URLs
	}
	for _, args := range cases {
		var buf bytes.Buffer
		if err := run(args, &buf); err == nil {
			t.Errorf("run(%v) accepted", args)
		}
	}
}

func TestFleetURLNormalization(t *testing.T) {
	cases := []struct{ in, want string }{
		{"127.0.0.1:8080", "http://127.0.0.1:8080/fleet.json"},
		{"http://h:1/fleet.json", "http://h:1/fleet.json"},
		{"http://h:1/", "http://h:1/fleet.json"},
	}
	for _, c := range cases {
		got, err := fleetURL(c.in, false)
		if err != nil || got != c.want {
			t.Errorf("fleetURL(%q) = %q, %v; want %q", c.in, got, err, c.want)
		}
	}
	if got, _ := fleetURL("h:1", true); got != "http://h:1/fleet.json?rings=1" {
		t.Errorf("rings URL = %q", got)
	}
	if got, _ := siblingURL("h:1", "/trace.jsonl"); got != "http://h:1/trace.jsonl" {
		t.Errorf("sibling URL = %q", got)
	}
}

// TestLiveFleetOneShotWatchAndDiff is the live-fleet smoke as a Go test:
// three in-process TCP nodes (own registries, free ports) behind a Cluster,
// its FleetSnapshot served as /fleet.json, and run() driven one-shot, in
// -watch and over -diff of two idle captures. Everything is closed by
// t.Cleanup; merge exactness itself is TestFleetSnapshotMergesExactly's.
func TestLiveFleetOneShotWatchAndDiff(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	sys, err := duo.NewSystem(duo.SystemOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	const n = 3
	var nodes []retrieval.Transport
	for i := 0; i < n; i++ {
		var mine []*duo.Video
		for j, v := range sys.Corpus.Train {
			if j%n == i {
				mine = append(mine, v)
			}
		}
		reg := telemetry.New()
		shard := retrieval.NewShard(sys.VictimModel(), mine)
		shard.SetTelemetry(reg)
		node, err := retrieval.ServeNodeConfig("127.0.0.1:0", shard, retrieval.NodeServerConfig{Telemetry: reg})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { node.Close() })
		tr, err := retrieval.DialNodeConfig(node.Addr(), retrieval.TCPConfig{Timeout: retrieval.DefaultCallTimeout})
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, tr)
	}
	cluster := retrieval.NewCluster(sys.VictimModel(), nodes).SetPolicy(retrieval.RequireAll())
	cluster.SetTelemetry(telemetry.New())
	t.Cleanup(func() { cluster.Close() })
	if _, err := cluster.RetrieveErr(sys.Corpus.Test[0], 5); err != nil {
		t.Fatal(err)
	}
	srv := serveView(t, func(r *http.Request) *retrieval.FleetView {
		view, err := cluster.FleetSnapshot(r.URL.Query().Get("rings") == "1")
		if err != nil {
			t.Error(err)
		}
		return view
	})

	var buf bytes.Buffer
	if err := run([]string{srv.URL}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "3/3 nodes reachable") {
		t.Errorf("one-shot view of the live fleet:\n%s", buf.String())
	}
	buf.Reset()
	if err := run([]string{"-watch", "-interval", "10ms", "-count", "2", srv.URL}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "slo availability") {
		t.Errorf("watch printed no availability SLO line:\n%s", buf.String())
	}

	var paths []string
	for _, name := range []string{"a.json", "b.json"} {
		resp, err := http.Get(srv.URL + "/fleet.json")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, filepath.Join(t.TempDir(), name))
		if err := os.WriteFile(paths[len(paths)-1], body, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	buf.Reset()
	if err := run([]string{"-diff", paths[0], paths[1]}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "IDENTICAL") {
		t.Errorf("two idle captures of one fleet differ:\n%s", buf.String())
	}
}
