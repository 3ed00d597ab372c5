package telemetry

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := New()
	c := r.Counter("queries")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if r.Counter("queries") != c {
		t.Error("same name must return the same counter")
	}
	g := r.Gauge("budget")
	g.Set(600)
	if got := g.Value(); got != 600 {
		t.Errorf("gauge = %d, want 600", got)
	}
}

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("x")
	h := r.Latency("x")
	rb := r.Ring("x", 8)
	if c != nil || g != nil || h != nil || rb != nil {
		t.Fatal("nil registry must hand out nil instruments")
	}
	c.Inc()
	c.Add(7)
	g.Set(3)
	h.Observe(1)
	sw := h.Start()
	sw.Stop()
	rb.Push(1)
	if c.Value() != 0 || g.Value() != 0 || h.Stats().Count != 0 || rb.Total() != 0 {
		t.Error("nil instruments must read as zero")
	}
	if s := r.Snapshot(); len(s.Counters) != 0 {
		t.Error("nil registry snapshot must be empty")
	}
	if r.Summary() == "" {
		t.Error("nil registry summary must still render")
	}
}

func TestHistogramStatsAndQuantiles(t *testing.T) {
	h := newHistogram([]float64{10, 20, 40, 80})
	for v := 1.0; v <= 100; v++ {
		h.Observe(v)
	}
	st := h.Stats()
	if st.Count != 100 {
		t.Fatalf("count = %d", st.Count)
	}
	if st.Min != 1 || st.Max != 100 {
		t.Errorf("min/max = %g/%g", st.Min, st.Max)
	}
	if math.Abs(st.Mean-50.5) > 1e-9 {
		t.Errorf("mean = %g", st.Mean)
	}
	// 1..100 uniform: p50 ≈ 50 must land in the (40, 80] bucket, p95 and
	// p99 in the overflow bucket, which reports the observed max.
	if st.P50 <= 40 || st.P50 > 80 {
		t.Errorf("p50 = %g, want in (40, 80]", st.P50)
	}
	if st.P95 != 100 || st.P99 != 100 {
		t.Errorf("p95/p99 = %g/%g, want observed max 100", st.P95, st.P99)
	}
	if got := (&Histogram{}).Stats(); got.Count != 0 {
		t.Errorf("empty histogram stats = %+v", got)
	}
}

func TestHistogramQuantileInterpolation(t *testing.T) {
	h := newHistogram([]float64{100})
	for i := 0; i < 10; i++ {
		h.Observe(50)
	}
	st := h.Stats()
	// All mass in the (0, 100] bucket: p50 interpolates to the bucket
	// midpoint, never outside the bucket.
	if st.P50 <= 0 || st.P50 > 100 {
		t.Errorf("p50 = %g outside its bucket", st.P50)
	}
}

func TestHistogramQuantilesNeverExceedObservedRange(t *testing.T) {
	// Regression: all observations sit at the bottom of a wide bucket.
	// Raw interpolation puts p99 near the bucket's upper bound (≈99 for
	// the (0, 100] bucket here), far above the observed max of 10 — the
	// estimate must be clamped to [Min, Max].
	h := newHistogram([]float64{100})
	for i := 0; i < 50; i++ {
		h.Observe(10)
	}
	st := h.Stats()
	if st.P99 > st.Max {
		t.Errorf("p99 = %g exceeds observed max %g", st.P99, st.Max)
	}
	if st.P95 > st.Max || st.P50 > st.Max {
		t.Errorf("p95/p50 = %g/%g exceed observed max %g", st.P95, st.P50, st.Max)
	}
	if st.P50 < st.Min {
		t.Errorf("p50 = %g below observed min %g", st.P50, st.Min)
	}
	// All-equal observations: every quantile collapses to that value.
	if st.P50 != 10 || st.P95 != 10 || st.P99 != 10 {
		t.Errorf("quantiles = %g/%g/%g, want all 10", st.P50, st.P95, st.P99)
	}
}

func TestStopwatchRecordsElapsed(t *testing.T) {
	r := New()
	h := r.Latency("stage_ns")
	sw := h.Start()
	time.Sleep(2 * time.Millisecond)
	sw.Stop()
	st := h.Stats()
	if st.Count != 1 {
		t.Fatalf("count = %d", st.Count)
	}
	if st.Sum < float64(time.Millisecond) {
		t.Errorf("recorded %v, want ≥ 1ms", time.Duration(st.Sum))
	}
}

func TestRingEvictsOldest(t *testing.T) {
	r := New()
	rb := r.Ring("traj", 4)
	for i := 1; i <= 6; i++ {
		rb.Push(float64(i))
	}
	got := rb.Values()
	want := []float64{3, 4, 5, 6}
	if len(got) != len(want) {
		t.Fatalf("values = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("values = %v, want %v", got, want)
		}
	}
	if rb.Total() != 6 {
		t.Errorf("total = %d", rb.Total())
	}
	if vs := r.Ring("empty", 4).Values(); vs != nil {
		t.Errorf("empty ring values = %v", vs)
	}
}

// TestConcurrentHammer drives every instrument from many goroutines under
// -race and checks the final totals are exact (no lost updates).
func TestConcurrentHammer(t *testing.T) {
	r := New()
	const goroutines = 16
	const perG = 2000
	c := r.Counter("hits")
	g := r.Gauge("state")
	h := r.Histogram("lat", []float64{1, 2, 4, 8})
	rb := r.Ring("traj", 64)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				c.Inc()
				g.Set(int64(i))
				h.Observe(float64(j % 10))
				rb.Push(float64(j))
			}
		}(i)
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*perG {
		t.Errorf("counter = %d, want %d", got, goroutines*perG)
	}
	st := h.Stats()
	if st.Count != goroutines*perG {
		t.Errorf("histogram count = %d, want %d", st.Count, goroutines*perG)
	}
	if rb.Total() != goroutines*perG {
		t.Errorf("ring total = %d, want %d", rb.Total(), goroutines*perG)
	}
}

// TestSnapshotDuringWrites takes snapshots while writers run and asserts
// every snapshot is internally consistent: histogram Count equals the
// bucket sum by construction, counters are monotone, and the mean lies
// within the observed value range.
func TestSnapshotDuringWrites(t *testing.T) {
	r := New()
	c := r.Counter("hits")
	h := r.Histogram("lat", []float64{5, 10})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					c.Inc()
					h.Observe(3)
					h.Observe(7)
				}
			}
		}()
	}
	var prev int64 = -1
	for i := 0; i < 200; i++ {
		s := r.Snapshot()
		if s.Counters["hits"] < prev {
			t.Fatalf("counter went backwards: %d → %d", prev, s.Counters["hits"])
		}
		prev = s.Counters["hits"]
		st := s.Histograms["lat"]
		if st.Count > 0 && (st.Mean < 3-1e-9 || st.Mean > 7+1e-9) {
			t.Fatalf("snapshot mean %g outside observed range [3, 7]", st.Mean)
		}
	}
	close(stop)
	wg.Wait()
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := New()
	r.Counter("a").Add(3)
	r.Gauge("b").Set(-1)
	r.Latency("c_ns").Observe(1500)
	r.Ring("d", 4).Push(0.25)
	raw, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["a"] != 3 || back.Gauges["b"] != -1 {
		t.Errorf("round trip lost values: %+v", back)
	}
	if back.Histograms["c_ns"].Count != 1 {
		t.Errorf("histogram lost: %+v", back.Histograms)
	}
	if len(back.Rings["d"]) != 1 || back.Rings["d"][0] != 0.25 {
		t.Errorf("ring lost: %+v", back.Rings)
	}
}

func TestMetricsHandlerServesJSON(t *testing.T) {
	r := New()
	r.Counter("served").Inc()
	srv := httptest.NewServer(AdminMux(r))
	defer srv.Close()

	for _, path := range []string{"/metrics.json", "/debug/vars", "/debug/pprof/cmdline"} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if resp.StatusCode != 200 {
			t.Errorf("%s: status %d", path, resp.StatusCode)
		}
		resp.Body.Close()
	}

	resp, err := srv.Client().Get(srv.URL + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var s Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		t.Fatal(err)
	}
	if s.Counters["served"] != 1 {
		t.Errorf("metrics.json counters = %v", s.Counters)
	}
}

func TestPublishExpvarIsIdempotent(t *testing.T) {
	r := New()
	r.PublishExpvar("duo-test-registry")
	r.PublishExpvar("duo-test-registry") // second call must not panic
}

// TestRenderListsCountersAndGaugesOnce renders five counters and five
// gauges, inserted out of order, with "x" registered as both kinds: every
// name gets one row per kind it has, each with its own value, in one
// sorted list.
func TestRenderListsCountersAndGaugesOnce(t *testing.T) {
	r := New()
	for i, name := range []string{"x", "e", "a", "m", "c"} {
		r.Counter(name).Add(int64(i + 1))
	}
	for i, name := range []string{"x", "b", "z", "d", "k"} {
		r.Gauge(name).Set(int64(10*i + 2))
	}
	var want strings.Builder
	want.WriteString("== telemetry ==\n")
	for _, row := range []struct {
		name, kind string
		v          int
	}{
		{"a", "", 3}, {"b", " (gauge)", 12}, {"c", "", 5}, {"d", " (gauge)", 32}, {"e", "", 2},
		{"k", " (gauge)", 42}, {"m", "", 4}, {"x", "", 1}, {"x", " (gauge)", 2}, {"z", " (gauge)", 22},
	} {
		fmt.Fprintf(&want, "%-36s %12d%s\n", row.name, row.v, row.kind)
	}
	for call := 0; call < 20; call++ {
		if got := r.Summary(); got != want.String() {
			t.Fatalf("call %d rendered\n%s\nwant\n%s", call, got, want.String())
		}
	}
}

func TestSummaryRendersEverything(t *testing.T) {
	r := New()
	r.Counter("attack.queries").Add(42)
	r.Gauge("attack.budget").Set(600)
	r.Latency("core.sparse_query_ns").Observe(float64(3 * time.Millisecond))
	r.Ring("attack.trajectory", 8).Push(1.25)
	out := r.Summary()
	for _, want := range []string{"attack.queries", "attack.budget", "core.sparse_query_ns", "attack.trajectory", "42", "600"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}
