package retrieval

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"duo/internal/models"
	"duo/internal/telemetry"
	"duo/internal/tensor"
	"duo/internal/trace"
	"duo/internal/video"
)

// pqTestData synthesizes a clustered flat-feature gallery for index-level
// tests (no model in the loop).
func pqTestData(seed int64, n, dim int) (ids []string, labels []int, feats []*tensor.Tensor) {
	rng := rand.New(rand.NewSource(seed))
	const clusters = 4
	centers := make([][]float64, clusters)
	for c := range centers {
		centers[c] = make([]float64, dim)
		for d := range centers[c] {
			centers[c][d] = rng.NormFloat64() * 5
		}
	}
	for i := 0; i < n; i++ {
		c := i % clusters
		v := make([]float64, dim)
		for d := range v {
			v[d] = centers[c][d] + rng.NormFloat64()
		}
		ids = append(ids, fmt.Sprintf("pq%04d", i))
		labels = append(labels, c)
		feats = append(feats, tensor.From(v, dim))
	}
	return ids, labels, feats
}

// newPQEngine embeds the videos under m, trains a PQ index over the
// features and wraps it in an Engine — the PQ-backed black box next to the
// exact NewEngine(m, vs).
func newPQEngine(t *testing.T, m models.Model, vs []*video.Video, cfg PQConfig) (*Engine, *PQIndex) {
	t.Helper()
	ids := make([]string, len(vs))
	labels := make([]int, len(vs))
	feats := make([]*tensor.Tensor, len(vs))
	for i, v := range vs {
		ids[i], labels[i], feats[i] = v.ID, v.Label, models.Embed(m, v)
	}
	ix, err := NewPQIndex(ids, labels, feats, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngineFromIndex(m, ix)
	if err != nil {
		t.Fatal(err)
	}
	return e, ix
}

func pqTestConfig() PQConfig {
	return PQConfig{Subspaces: 4, Centroids: 8, KMeansIters: 15, Seed: 3, RerankDepth: 8}
}

func TestPQConfigValidation(t *testing.T) {
	ids, labels, feats := pqTestData(1, 30, 8)
	bad := []PQConfig{
		{Subspaces: 0, Centroids: 4, RerankDepth: 4},
		{Subspaces: 9, Centroids: 4, RerankDepth: 4}, // > dim
		{Subspaces: 4, Centroids: 0, RerankDepth: 4},
		{Subspaces: 4, Centroids: 257, RerankDepth: 4},
		{Subspaces: 4, Centroids: 31, RerankDepth: 4}, // > n
		{Subspaces: 4, Centroids: 4, RerankDepth: 0},
	}
	for i, cfg := range bad {
		if _, err := NewPQIndex(ids, labels, feats, cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	if _, err := NewPQIndex(nil, nil, nil, pqTestConfig()); err == nil {
		t.Error("empty gallery accepted")
	}
	if _, err := NewPQIndex(ids[:29], labels, feats, pqTestConfig()); err == nil {
		t.Error("mismatched ids length accepted")
	}
	mixed := append(append([]*tensor.Tensor(nil), feats[:29]...), tensor.New(5))
	if _, err := NewPQIndex(ids, labels, mixed, pqTestConfig()); err == nil {
		t.Error("mismatched feature dims accepted")
	}
}

// TestPQFullRerankMatchesExactBitwise pins the re-rank contract: with the
// re-rank depth covering the whole gallery, every candidate gets its exact
// distance, so the PQ result list must be bitwise-identical to the exact
// shard scan — IDs, labels, and distance bit patterns.
func TestPQFullRerankMatchesExactBitwise(t *testing.T) {
	ids, labels, feats := pqTestData(2, 60, 8)
	cfg := pqTestConfig()
	cfg.RerankDepth = len(ids)
	ix, err := NewPQIndex(ids, labels, feats, cfg)
	if err != nil {
		t.Fatal(err)
	}
	exact := NewShardFromFeatures(ids, labels, feats)
	_, _, queries := pqTestData(9, 10, 8)
	for qi, q := range queries {
		a := exact.Nearest(q.Data(), 7)
		b := ix.Nearest(q.Data(), 7)
		if len(a) != len(b) {
			t.Fatalf("query %d: %d vs %d results", qi, len(a), len(b))
		}
		for i := range a {
			if a[i].ID != b[i].ID || a[i].Label != b[i].Label ||
				math.Float64bits(a[i].Dist) != math.Float64bits(b[i].Dist) {
				t.Fatalf("query %d rank %d: exact %+v, pq %+v", qi, i, a[i], b[i])
			}
		}
	}
}

// TestPQWorkerCountBitStable asserts the §9 determinism contract at the
// index layer: the same query must produce bitwise-identical results at
// every scan worker count, even when the scan actually shards (gallery
// larger than scanMinShard).
func TestPQWorkerCountBitStable(t *testing.T) {
	n := 3 * scanMinShard
	ids, labels, feats := pqTestData(4, n, 8)
	cfg := pqTestConfig()
	cfg.Centroids = 16
	ix, err := NewPQIndex(ids, labels, feats, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, _, queries := pqTestData(11, 6, 8)
	for qi, q := range queries {
		base := ix.nearest(q.Data(), 9, 1)
		for _, w := range []int{2, 3, 4, 8} {
			got := ix.nearest(q.Data(), 9, w)
			if len(got) != len(base) {
				t.Fatalf("query %d workers %d: %d vs %d results", qi, w, len(got), len(base))
			}
			for i := range base {
				if base[i].ID != got[i].ID ||
					math.Float64bits(base[i].Dist) != math.Float64bits(got[i].Dist) {
					t.Fatalf("query %d workers %d rank %d: %+v vs %+v", qi, w, i, base[i], got[i])
				}
			}
		}
	}
}

func TestPQNearestEdgeCases(t *testing.T) {
	ids, labels, feats := pqTestData(5, 20, 8)
	ix, err := NewPQIndex(ids, labels, feats, pqTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	q := feats[0].Data()
	if got := ix.Nearest(q, 0); len(got) != 0 {
		t.Errorf("m=0 returned %d results", len(got))
	}
	if got := ix.Nearest(q, -3); len(got) != 0 {
		t.Errorf("m<0 returned %d results", len(got))
	}
	if got := ix.Nearest(q, 100); len(got) != 20 {
		t.Errorf("m>n returned %d results, want clamp to 20", len(got))
	}
	// The nearest entry to a gallery member is itself, at distance 0.
	if got := ix.Nearest(q, 1); got[0].ID != ids[0] || got[0].Dist != 0 {
		t.Errorf("self query returned %+v", got[0])
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("dim-mismatched query did not panic")
			}
		}()
		ix.Nearest(make([]float64, 5), 1)
	}()
	if ix.Size() != 20 || ix.Dim() != 8 || ix.RerankDepth() != pqTestConfig().RerankDepth {
		t.Errorf("accessors: size=%d dim=%d rerank=%d", ix.Size(), ix.Dim(), ix.RerankDepth())
	}
}

// TestPQTrainingDeterministic: same inputs and seed produce bitwise
// identical codebooks and codes (the training fan-out over subspaces must
// not leak scheduling into the fit).
func TestPQTrainingDeterministic(t *testing.T) {
	ids, labels, feats := pqTestData(6, 80, 8)
	cfg := pqTestConfig()
	a, err := NewPQIndex(ids, labels, feats, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewPQIndex(ids, labels, feats, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.codebooks {
		if math.Float64bits(a.codebooks[i]) != math.Float64bits(b.codebooks[i]) {
			t.Fatalf("codebooks differ at %d", i)
		}
	}
	for i := range a.codes {
		if a.codes[i] != b.codes[i] {
			t.Fatalf("codes differ at row-entry %d", i)
		}
	}
}

// TestPQEngineParityAndBilling runs the PQ engine as a drop-in black box
// next to the exact engine: with full re-rank the ranked lists agree, and
// every query path bills QueryCount exactly once per query.
func TestPQEngineParityAndBilling(t *testing.T) {
	eng, c, m := testSystem(t)
	pq, _ := newPQEngine(t, m, c.Train, PQConfig{
		Subspaces: 4, Centroids: 8, KMeansIters: 15, Seed: 5, RerankDepth: len(c.Train),
	})
	if pq.GallerySize() != eng.GallerySize() {
		t.Fatalf("gallery size %d vs %d", pq.GallerySize(), eng.GallerySize())
	}
	for _, q := range c.Test[:4] {
		a := IDs(eng.Retrieve(q, 6))
		b := IDs(pq.Retrieve(q, 6))
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("full-rerank PQ differs at %d: %v vs %v", i, a, b)
			}
		}
	}
	pq.ResetQueryCount()
	pq.Retrieve(c.Test[0], 3)
	if rs, err := Query(pq, trace.Context{}, c.Test[0], 3); err != nil || len(rs) != 3 {
		t.Fatalf("Query: %v, %d results", err, len(rs))
	}
	batch := pq.RetrieveBatch(c.Test[:3], 4)
	if len(batch) != 3 {
		t.Fatalf("batch returned %d lists", len(batch))
	}
	if got := pq.QueryCount(); got != 5 {
		t.Errorf("QueryCount = %d, want 5 (1 + 1 + batch of 3)", got)
	}
	// Batch answers must match the single-query path.
	for i, q := range c.Test[:3] {
		a, b := IDs(pq.Retrieve(q, 4)), IDs(batch[i])
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("batch query %d differs at %d: %v vs %v", i, j, a, b)
			}
		}
	}
}

// TestPQEngineTelemetry checks the write-only instrumentation contract: a
// PQ-backed engine reports under retrieval.* like any other, its index under
// pq.*, and enabling either changes no result.
func TestPQEngineTelemetry(t *testing.T) {
	_, c, m := testSystem(t)
	pq, ix := newPQEngine(t, m, c.Train, PQConfig{
		Subspaces: 4, Centroids: 8, KMeansIters: 15, Seed: 5, RerankDepth: len(c.Train),
	})
	clean := IDs(pq.Retrieve(c.Test[0], 5))

	reg := telemetry.New()
	pq.SetTelemetry(reg)
	ix.SetTelemetry(reg)
	instrumented := IDs(pq.Retrieve(c.Test[0], 5))
	for i := range clean {
		if clean[i] != instrumented[i] {
			t.Fatalf("telemetry changed results: %v vs %v", clean, instrumented)
		}
	}
	snap := reg.Snapshot()
	n := int64(pq.GallerySize())
	for name, want := range map[string]int64{
		"retrieval.queries":         1,
		"retrieval.entries_scanned": n,
		"pq.codes_scanned":          n,
		"pq.reranked":               n, // full-depth re-rank
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	for _, h := range []string{"pq.adc_ns", "pq.rerank_ns", "retrieval.scan_ns"} {
		if st, ok := snap.Histograms[h]; !ok || st.Count != 1 {
			t.Errorf("histogram %s missing or empty: %+v", h, st)
		}
	}
}

// TestPQRecallReasonable: at a shallow re-rank depth PQ is approximate but
// must still retrieve most of the true neighbors on clustered data, and a
// deeper re-rank must not lower recall.
func TestPQRecallReasonable(t *testing.T) {
	eng, c, m := testSystem(t)
	shallow, _ := newPQEngine(t, m, c.Train, PQConfig{
		Subspaces: 4, Centroids: 8, KMeansIters: 15, Seed: 5, RerankDepth: 8,
	})
	r8 := RecallAtM(eng, shallow, c.Test, 5)
	if r8 < 0.5 {
		t.Errorf("recall@5 = %g at depth 8, want ≥ 0.5", r8)
	}
	deep, _ := newPQEngine(t, m, c.Train, PQConfig{
		Subspaces: 4, Centroids: 8, KMeansIters: 15, Seed: 5, RerankDepth: len(c.Train),
	})
	if rFull := RecallAtM(eng, deep, c.Test, 5); rFull < r8-1e-9 {
		t.Errorf("recall fell with deeper re-rank: %g → %g", r8, rFull)
	}
}

func TestPQEngineFromIndexDimMismatch(t *testing.T) {
	_, _, m := testSystem(t)
	ids, labels, feats := pqTestData(7, 30, m.FeatureDim()+1)
	cfg := pqTestConfig()
	cfg.Subspaces = 1
	ix, err := NewPQIndex(ids, labels, feats, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEngineFromIndex(m, ix); err == nil {
		t.Error("model/index dim mismatch accepted")
	}
}
