package duo

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"duo/internal/dataset"
	"duo/internal/models"
	"duo/internal/parallel"
	"duo/internal/retrieval"
	"duo/internal/tensor"
)

// goldenPQ is the checked-in fingerprint of the product-quantized
// retrieval tier. Fingerprint covers the full ranked lists — IDs and exact
// float64 distance bits — over every test query, so any drift in codebook
// training, ADC candidate selection, re-rank order, or persistence
// round-tripping fails the test. RecallFloor is the quality gate: the PQ
// tier must keep at least this recall@10 against the exact engine.
type goldenPQ struct {
	Fingerprint string  `json:"fingerprint"`
	RecallAt10  float64 `json:"recall_at_10"`
	RecallFloor float64 `json:"recall_floor"`
}

const goldenPQPath = "testdata/golden_pq.json"

// goldenPQSetup builds the fixed corpus, extractor, exact engine, and PQ
// engine (with its index) the golden test pins.
func goldenPQSetup(t *testing.T) (exact, pq *retrieval.Engine, pqIdx *retrieval.PQIndex, queries []*Video) {
	t.Helper()
	c, err := dataset.Generate(dataset.Config{
		Name: "GoldenPQ", Categories: 4, TrainPerCategory: 15, TestPerCategory: 3,
		Frames: 6, Channels: 3, Height: 10, Width: 10, Seed: 23,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := models.NewC3D(rand.New(rand.NewSource(24)), models.GeometryOf(c.Train[0]), 16)
	ids := make([]string, len(c.Train))
	labels := make([]int, len(c.Train))
	feats := make([]*tensor.Tensor, len(c.Train))
	for i, v := range c.Train {
		ids[i], labels[i], feats[i] = v.ID, v.Label, models.Embed(m, v)
	}
	ix, err := retrieval.NewPQIndex(ids, labels, feats, retrieval.PQConfig{
		Subspaces: 4, Centroids: 16, KMeansIters: 20, Seed: 19, RerankDepth: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	pq, err = retrieval.NewEngineFromIndex(m, ix)
	if err != nil {
		t.Fatal(err)
	}
	return retrieval.NewEngine(m, c.Train), pq, ix, c.Test
}

// pqFingerprint hashes every query's full ranked list: result IDs and the
// exact distance bit patterns. Two runs share a fingerprint iff their
// retrieval output is bitwise-identical.
func pqFingerprint(queries []*Video, retrieve func(*Video, int) []retrieval.Result) string {
	h := sha256.New()
	var buf [8]byte
	for _, q := range queries {
		for _, r := range retrieve(q, 10) {
			h.Write([]byte(r.ID))
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(r.Dist))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenPQ locks the PQ retrieval tier to its checked-in fingerprint
// at workers=1, then requires the identical fingerprint at workers=4 (the
// §9 determinism contract through the ADC scan and re-rank), from a
// persisted-and-reloaded index (the mmap serving path a restarted node
// takes), and recall@10 at or above the checked-in floor.
func TestGoldenPQ(t *testing.T) {
	if testing.Short() {
		t.Skip("full PQ pipeline run")
	}
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)

	exact, pq, pqIdx, queries := goldenPQSetup(t)
	got := goldenPQ{
		Fingerprint: pqFingerprint(queries, pq.Retrieve),
		RecallAt10:  retrieval.RecallAtM(exact, pq, queries, 10),
		RecallFloor: 0.95,
	}

	if *updateGolden {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPQPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPQPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenPQPath)
	}

	raw, err := os.ReadFile(goldenPQPath)
	if err != nil {
		t.Fatalf("read golden (run `go test -run TestGoldenPQ -update` to create): %v", err)
	}
	var want goldenPQ
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint != want.Fingerprint {
		t.Errorf("PQ fingerprint drifted:\n got %s\nwant %s", got.Fingerprint, want.Fingerprint)
	}
	if got.RecallAt10 < want.RecallFloor {
		t.Errorf("recall@10 = %g below checked-in floor %g", got.RecallAt10, want.RecallFloor)
	}
	if math.Float64bits(got.RecallAt10) != math.Float64bits(want.RecallAt10) {
		t.Errorf("recall@10 drifted: got %v, want %v", got.RecallAt10, want.RecallAt10)
	}

	// Same bits at workers=4: the scan shards, the fingerprint must not.
	parallel.SetWorkers(4)
	_, pq4, _, queries4 := goldenPQSetup(t)
	if fp4 := pqFingerprint(queries4, pq4.Retrieve); fp4 != got.Fingerprint {
		t.Errorf("workers=4 fingerprint differs:\n w1 %s\n w4 %s", got.Fingerprint, fp4)
	}

	// Same bits through persistence: write, reload via the mmap open path,
	// and serve — a restarted node must be indistinguishable bit for bit.
	path := filepath.Join(t.TempDir(), "golden.duopq")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pqIdx.WriteIndex(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	opened, err := retrieval.OpenIndexFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer opened.Close()
	ix, ok := opened.(*retrieval.PQIndex)
	if !ok {
		t.Fatalf("reopened a %T, want *retrieval.PQIndex", opened)
	}
	reloaded, err := retrieval.NewEngineFromIndex(pq.Model(), ix)
	if err != nil {
		t.Fatal(err)
	}
	if fpR := pqFingerprint(queries, reloaded.Retrieve); fpR != got.Fingerprint {
		t.Errorf("reloaded-index fingerprint differs:\n mem  %s\n disk %s", got.Fingerprint, fpR)
	}
}
