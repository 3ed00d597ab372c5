package telemetry

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
)

// shardSnapshots builds n per-shard snapshots whose histograms share one
// bucket layout, plus one combined registry that observed every value.
// Observations are integer-valued so float sums are exact and merge
// results can be compared bitwise (the *_ns latency histograms this
// models record integer nanoseconds for the same reason).
func shardSnapshots(t *testing.T, rng *rand.Rand, n int) (shards []*Snapshot, combined *Snapshot) {
	t.Helper()
	bounds := []float64{10, 100, 1000, 10000}
	all := New()
	allHist := all.Histogram("scan_ns", bounds)
	for i := 0; i < n; i++ {
		r := New()
		h := r.Histogram("scan_ns", bounds)
		for k := 0; k < 50+rng.Intn(100); k++ {
			v := float64(rng.Intn(20000))
			h.Observe(v)
			allHist.Observe(v)
		}
		q := int64(rng.Intn(500))
		r.Counter("queries").Add(q)
		all.Counter("queries").Add(q)
		r.Gauge("inflight").Set(int64(i + 1)) // sums
		r.Gauge("breaker_state").Set(int64(rng.Intn(3)))
		shards = append(shards, r.Snapshot())
	}
	return shards, all.Snapshot()
}

// TestMergeEqualsCombinedHistogram is the sharding property: merging N
// per-shard snapshots bucket-wise must equal one histogram that observed
// every shard's values — the deterministic-merge contract the fleet view
// (and ROADMAP item 4's detection plane) inherits.
func TestMergeEqualsCombinedHistogram(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 20; trial++ {
		shards, combined := shardSnapshots(t, rng, 2+rng.Intn(5))
		merged, err := MergeAll(shards...)
		if err != nil {
			t.Fatalf("trial %d: merge: %v", trial, err)
		}
		if got, want := merged.Histograms["scan_ns"], combined.Histograms["scan_ns"]; !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: merged histogram != combined:\n got %+v\nwant %+v", trial, got, want)
		}
		if got, want := merged.Counters["queries"], combined.Counters["queries"]; got != want {
			t.Fatalf("trial %d: merged counter %d != combined %d", trial, got, want)
		}
	}
}

// TestMergeAssociativeCommutative: any parenthesization and any
// permutation of the operands produce the identical snapshot (integer
// observations make even the float sums exact).
func TestMergeAssociativeCommutative(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 10; trial++ {
		shards, _ := shardSnapshots(t, rng, 3)
		a, b, c := shards[0], shards[1], shards[2]

		ab, err := a.Merge(b)
		if err != nil {
			t.Fatal(err)
		}
		abc1, err := ab.Merge(c)
		if err != nil {
			t.Fatal(err)
		}
		bc, err := b.Merge(c)
		if err != nil {
			t.Fatal(err)
		}
		abc2, err := a.Merge(bc)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(abc1, abc2) {
			t.Fatalf("trial %d: merge is not associative:\n(a·b)·c %+v\na·(b·c) %+v", trial, abc1, abc2)
		}

		want, err := MergeAll(shards...)
		if err != nil {
			t.Fatal(err)
		}
		perm := rng.Perm(len(shards))
		shuffled := make([]*Snapshot, len(shards))
		for i, p := range perm {
			shuffled[i] = shards[p]
		}
		got, err := MergeAll(shuffled...)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: merge not commutative under permutation %v", trial, perm)
		}
	}
}

func TestMergeGaugeRules(t *testing.T) {
	a := &Snapshot{Gauges: map[string]int64{
		"queue.depth":                  3,
		"node.breaker_state":           0,
		"breaker.state":                2,
		"admission.config.maxinflight": 8,
		"inflight_highwater":           5,
	}}
	b := &Snapshot{Gauges: map[string]int64{
		"queue.depth":                  4,
		"node.breaker_state":           1,
		"breaker.state":                1,
		"admission.config.maxinflight": 8,
		"inflight_highwater":           9,
	}}
	m, err := a.Merge(b)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{
		"queue.depth":                  7, // additive
		"node.breaker_state":           1, // max (suffix _state)
		"breaker.state":                2, // max (suffix .state)
		"admission.config.maxinflight": 8, // max (config echo)
		"inflight_highwater":           9, // max (high-water mark)
	}
	if !reflect.DeepEqual(m.Gauges, want) {
		t.Errorf("gauge merge = %v, want %v", m.Gauges, want)
	}
}

func TestMergeBoundsMismatchTypedError(t *testing.T) {
	a := New()
	a.Histogram("h", []float64{1, 2, 3}).Observe(1)
	b := New()
	b.Histogram("h", []float64{1, 2}).Observe(1)
	_, err := a.Snapshot().Merge(b.Snapshot())
	var hme *HistogramMergeError
	if !errors.As(err, &hme) {
		t.Fatalf("merge error = %v, want *HistogramMergeError", err)
	}
	if hme.Name != "h" || len(hme.A) != 3 || len(hme.B) != 2 {
		t.Errorf("error detail = %+v", hme)
	}

	// With six mismatched histograms registered out of name order, the
	// error names the first by name on every call, not the first the
	// histogram map is walked to.
	a, b = New(), New()
	for _, name := range []string{"h5", "h2", "h4", "h0", "h3", "h1"} {
		a.Histogram(name, []float64{1, 2, 3}).Observe(1)
		b.Histogram(name, []float64{1, 2}).Observe(1)
	}
	sa, sb := a.Snapshot(), b.Snapshot()
	for i := 0; i < 20; i++ {
		_, err := sa.Merge(sb)
		if !errors.As(err, &hme) || hme.Name != "h0" {
			t.Fatalf("call %d: merge error = %v, want one naming h0", i, err)
		}
	}
}

// TestMergeEmptyAndNil: the zero/empty/nil snapshot is the merge identity,
// merged rings are dropped, and the result never aliases operand buckets.
func TestMergeEmptyAndNil(t *testing.T) {
	r := New()
	r.Histogram("h", []float64{5, 50}).Observe(7)
	r.Counter("c").Add(2)
	r.Ring("ring", 4).Push(1.5)
	s := r.Snapshot()

	for _, other := range []*Snapshot{nil, {}, (&Registry{}).Snapshot()} {
		m, err := s.Merge(other)
		if err != nil {
			t.Fatal(err)
		}
		if m.Counters["c"] != 2 || !reflect.DeepEqual(m.Histograms["h"], s.Histograms["h"]) {
			t.Errorf("identity merge changed state: %+v", m)
		}
		if len(m.Rings) != 0 {
			t.Errorf("merge retained rings: %v", m.Rings)
		}
	}

	m, err := s.Merge(nil)
	if err != nil {
		t.Fatal(err)
	}
	m.Histograms["h"].Buckets[0] = 99
	if s.Histograms["h"].Buckets[0] == 99 {
		t.Error("merged snapshot aliases operand buckets")
	}
}

// TestMergedQuantilesMatchEstimator: a merged histogram's quantiles come
// from the same bucket estimator as a live one, including the
// clamp-to-observed-range rule.
func TestMergedQuantilesMatchEstimator(t *testing.T) {
	bounds := []float64{100, 200}
	a, b := New(), New()
	for i := 0; i < 10; i++ {
		a.Histogram("h", bounds).Observe(150)
	}
	for i := 0; i < 10; i++ {
		b.Histogram("h", bounds).Observe(160)
	}
	m, err := a.Snapshot().Merge(b.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	st := m.Histograms["h"]
	if st.Count != 20 || st.Min != 150 || st.Max != 160 {
		t.Fatalf("merged aggregates wrong: %+v", st)
	}
	// All 20 observations sit in (100, 200]; raw interpolation would put
	// p99 near 199, but the estimator clamps to the observed max.
	if st.P99 != 160 {
		t.Errorf("merged p99 = %g, want clamped observed max 160", st.P99)
	}
}
