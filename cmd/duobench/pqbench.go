package main

// PQ corpus-scale benchmark: `duobench -bench pq` measures the exact
// sharded scan, a coarse-quantizer (IVF-style) probe, and the
// product-quantized ADC scan + exact re-rank over the same synthetic
// gallery at 1×/10×/100× scale, reports recall@10 against the exact scan,
// times the cold-start load of a persisted PQ index, and writes the whole
// report to BENCH_pq.json — the only PQ number on file until bench/ grows a
// serve_pq workload (ROADMAP item 3's second [benchmark] change).

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"duo/internal/retrieval"
	"duo/internal/tensor"
)

const (
	pqBenchDim     = 64
	pqBenchBaseN   = 200
	pqBenchQueries = 32
	pqBenchTopM    = 10
	// pqBenchPerCluster keeps cluster density constant as the gallery
	// scales: a bigger corpus has more distinct content, not 100 duplicates
	// of the same content. This is what makes recall comparable across the
	// 1×/10×/100× rows — the neighborhood a query must resolve stays the
	// same size while the haystack around it grows.
	pqBenchPerCluster = 25
)

func pqBenchClusters(n int) int {
	c := n / pqBenchPerCluster
	if c < 8 {
		c = 8
	}
	return c
}

// pqBenchRow is one gallery scale's measurements.
type pqBenchRow struct {
	Scale        int     `json:"scale"`
	N            int     `json:"n"`
	Dim          int     `json:"dim"`
	ExactNsPerOp float64 `json:"exact_ns_per_op"`
	IVFNsPerOp   float64 `json:"ivf_ns_per_op"`
	PQNsPerOp    float64 `json:"pq_ns_per_op"`
	PQSpeedup    float64 `json:"pq_speedup_vs_exact"`
	IVFRecall    float64 `json:"ivf_recall_at_10"`
	PQRecall     float64 `json:"pq_recall_at_10"`
	IndexBytes   int64   `json:"pq_index_bytes"`
	LoadMs       float64 `json:"pq_load_ms"`
}

// pqBenchReport is the BENCH_pq.json shape; AtMaxScale repeats the
// headline numbers CI asserts on.
type pqBenchReport struct {
	Dim        int          `json:"dim"`
	TopM       int          `json:"top_m"`
	Rows       []pqBenchRow `json:"rows"`
	AtMaxScale pqBenchRow   `json:"at_max_scale"`
}

// pqBenchCorpus synthesizes a clustered gallery (the shape real embedding
// spaces have — recall against cluster structure is the interesting case)
// plus queries drawn from the same distribution.
func pqBenchCorpus(scale int) (ids []string, labels []int, feats []*tensor.Tensor, queries []*tensor.Tensor) {
	rng := rand.New(rand.NewSource(41))
	n := pqBenchBaseN * scale
	nclusters := pqBenchClusters(n)
	centers := make([][]float64, nclusters)
	for c := range centers {
		centers[c] = make([]float64, pqBenchDim)
		for d := range centers[c] {
			centers[c][d] = rng.NormFloat64() * 10
		}
	}
	sample := func(c int) *tensor.Tensor {
		v := make([]float64, pqBenchDim)
		for d := range v {
			v[d] = centers[c][d] + rng.NormFloat64()
		}
		return tensor.From(v, pqBenchDim)
	}
	for i := 0; i < n; i++ {
		c := i % nclusters
		ids = append(ids, fmt.Sprintf("v%07d", i))
		labels = append(labels, c)
		feats = append(feats, sample(c))
	}
	for q := 0; q < pqBenchQueries; q++ {
		queries = append(queries, sample(q%nclusters))
	}
	return ids, labels, feats, queries
}

// ivfProbe is the bench's minimal coarse-quantizer baseline: rank the
// KMeans centroids, scan the nprobe nearest cells exactly, merge. It
// exists to place PQ between the exact scan and the cell-probing IVF point
// in the recall/speed table.
type ivfProbe struct {
	centroids []*tensor.Tensor
	cells     []*retrieval.Shard
	nprobe    int
}

func newIVFProbe(ids []string, labels []int, feats []*tensor.Tensor, nlist, nprobe int) (*ivfProbe, error) {
	km, err := retrieval.KMeans(rand.New(rand.NewSource(43)), feats, nlist, 10)
	if err != nil {
		return nil, err
	}
	cellIDs := make([][]string, nlist)
	cellLabels := make([][]int, nlist)
	cellFeats := make([][]*tensor.Tensor, nlist)
	for i, c := range km.Assign {
		cellIDs[c] = append(cellIDs[c], ids[i])
		cellLabels[c] = append(cellLabels[c], labels[i])
		cellFeats[c] = append(cellFeats[c], feats[i])
	}
	p := &ivfProbe{centroids: km.Centroids, nprobe: nprobe}
	for c := 0; c < nlist; c++ {
		p.cells = append(p.cells, retrieval.NewShardFromFeatures(cellIDs[c], cellLabels[c], cellFeats[c]))
	}
	return p, nil
}

func (p *ivfProbe) Nearest(feat []float64, m int) []retrieval.Result {
	q := tensor.From(feat, len(feat))
	type cellDist struct {
		cell int
		d    float64
	}
	cd := make([]cellDist, len(p.centroids))
	for c, cent := range p.centroids {
		cd[c] = cellDist{cell: c, d: q.SquaredDistance(cent)}
	}
	sort.Slice(cd, func(a, b int) bool {
		if cd[a].d != cd[b].d { // exact equality is the tie: both operands are the same unrounded computation
			return cd[a].d < cd[b].d
		}
		return cd[a].cell < cd[b].cell
	})
	var merged []retrieval.Result
	for _, c := range cd[:p.nprobe] {
		merged = append(merged, p.cells[c.cell].Nearest(feat, m)...)
	}
	sort.Slice(merged, func(a, b int) bool {
		if merged[a].Dist != merged[b].Dist { // exact equality is the tie: both operands are the same unrounded computation
			return merged[a].Dist < merged[b].Dist
		}
		return merged[a].ID < merged[b].ID
	})
	if m > len(merged) {
		m = len(merged)
	}
	return merged[:m]
}

// recallAt10 measures the ID overlap of approx's top-10 with exact's.
func pqBenchRecall(exact, approx func(feat []float64, m int) []retrieval.Result, queries []*tensor.Tensor) float64 {
	total := 0.0
	for _, q := range queries {
		want := map[string]bool{}
		for _, r := range exact(q.Data(), pqBenchTopM) {
			want[r.ID] = true
		}
		hit := 0
		for _, r := range approx(q.Data(), pqBenchTopM) {
			if want[r.ID] {
				hit++
			}
		}
		total += float64(hit) / float64(len(want))
	}
	return total / float64(len(queries))
}

// pqBenchScan times one Nearest implementation, rotating over the queries.
func pqBenchScan(nearest func(feat []float64, m int) []retrieval.Result, queries []*tensor.Tensor) float64 {
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			nearest(queries[i%len(queries)].Data(), pqBenchTopM)
		}
	})
	return float64(r.T.Nanoseconds()) / float64(r.N)
}

// runPQBench measures one scale and returns its row.
func pqBenchScale(scale int, tmpDir string) (pqBenchRow, error) {
	ids, labels, feats, queries := pqBenchCorpus(scale)
	n := len(ids)
	row := pqBenchRow{Scale: scale, N: n, Dim: pqBenchDim}

	exact := retrieval.NewShardFromFeatures(ids, labels, feats)

	k := 64
	if k > n {
		k = n
	}
	// RerankDepth 64 comfortably covers one ~25-point cluster: the ADC scan
	// reliably isolates the query's cluster but is near-flat inside it, so
	// the depth must cover the cluster for the exact re-rank to recover the
	// true top-10.
	pq, err := retrieval.NewPQIndex(ids, labels, feats, retrieval.PQConfig{
		Subspaces: 8, Centroids: k, KMeansIters: 15, Seed: 7, RerankDepth: 64,
	})
	if err != nil {
		return row, err
	}
	ivf, err := newIVFProbe(ids, labels, feats, 32, 4)
	if err != nil {
		return row, err
	}

	row.ExactNsPerOp = pqBenchScan(exact.Nearest, queries)
	row.PQNsPerOp = pqBenchScan(pq.Nearest, queries)
	row.IVFNsPerOp = pqBenchScan(ivf.Nearest, queries)
	row.PQSpeedup = row.ExactNsPerOp / row.PQNsPerOp
	row.PQRecall = pqBenchRecall(exact.Nearest, pq.Nearest, queries)
	row.IVFRecall = pqBenchRecall(exact.Nearest, ivf.Nearest, queries)

	// Persist and measure the cold-start path: open (mmap + validate) and
	// close, which is what a restarting retrievald node pays instead of
	// re-embedding the gallery.
	path := filepath.Join(tmpDir, fmt.Sprintf("pq-%dx.duopq", scale))
	f, err := os.Create(path)
	if err != nil {
		return row, err
	}
	if err := pq.WriteIndex(f); err != nil {
		f.Close()
		return row, err
	}
	if err := f.Close(); err != nil {
		return row, err
	}
	st, err := os.Stat(path)
	if err != nil {
		return row, err
	}
	row.IndexBytes = st.Size()
	load := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ix, err := retrieval.OpenIndexFile(path)
			if err != nil {
				b.Fatal(err)
			}
			ix.Close()
		}
	})
	row.LoadMs = float64(load.T.Nanoseconds()) / float64(load.N) / 1e6
	return row, nil
}

// runPQBench executes the scale sweep and writes BENCH_pq.json.
func runPQBench(outDir string, emit func(string)) error {
	tmpDir, err := os.MkdirTemp("", "duobench-pq-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmpDir)

	report := pqBenchReport{Dim: pqBenchDim, TopM: pqBenchTopM}
	for _, scale := range []int{1, 10, 100} {
		row, err := pqBenchScale(scale, tmpDir)
		if err != nil {
			return fmt.Errorf("pq bench scale %d×: %w", scale, err)
		}
		report.Rows = append(report.Rows, row)
		emit(fmt.Sprintf("pq/scale=%-3dx n=%-6d exact %10.0f ns/op  ivf %10.0f ns/op (r@10 %.3f)  pq %10.0f ns/op (r@10 %.3f, %4.1fx, load %.2fms, %d B)\n",
			row.Scale, row.N, row.ExactNsPerOp, row.IVFNsPerOp, row.IVFRecall,
			row.PQNsPerOp, row.PQRecall, row.PQSpeedup, row.LoadMs, row.IndexBytes))
	}
	report.AtMaxScale = report.Rows[len(report.Rows)-1]

	raw, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(outDir, "BENCH_pq.json")
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	emit(fmt.Sprintf("wrote %s\n", path))
	return nil
}
