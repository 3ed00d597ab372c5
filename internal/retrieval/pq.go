package retrieval

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"

	"duo/internal/parallel"
	"duo/internal/telemetry"
	"duo/internal/tensor"
)

// This file implements product quantization (PQ), the compressed-index
// tier of the retrieval service. Gallery features are split into
// contiguous subspaces, each subspace gets its own k-means codebook, and
// every gallery vector is stored as one byte code per subspace. A query
// scans the code matrix with an asymmetric-distance lookup table (ADC) —
// a handful of table lookups per row instead of a full float distance —
// selects a fixed number of candidates, and re-ranks them with exact
// distances so the final list is bit-identical to what the exact engine
// would return for those candidates. This is how production ANN systems
// keep million-entry galleries scannable (§I's "ever-growing large
// database"); DESIGN.md §14 specifies the determinism contract and the
// on-disk layout (persist.go).

// PQConfig parameterizes product-quantized index construction.
type PQConfig struct {
	// Subspaces is the number of code subspaces (1 ≤ Subspaces ≤ dim).
	// Each gallery vector is stored as Subspaces bytes.
	Subspaces int
	// Centroids is the per-subspace codebook size (1 ≤ Centroids ≤ 256,
	// and at most the gallery size — codes are single bytes).
	Centroids int
	// KMeansIters bounds each subspace codebook fit (0 = default).
	KMeansIters int
	// Seed drives the (deterministic) codebook training.
	Seed int64
	// RerankDepth is how many ADC candidates are re-ranked with exact
	// distances per query (≥ 1; raised to m when a query asks for more).
	// It is fixed at build time so retrieval fingerprints are a property
	// of the index, not of the caller.
	RerankDepth int
}

func (cfg *PQConfig) validate(n, dim int) error {
	if cfg.Subspaces < 1 || cfg.Subspaces > dim {
		return fmt.Errorf("retrieval: pq: subspaces=%d out of range [1, %d]", cfg.Subspaces, dim)
	}
	if cfg.Centroids < 1 || cfg.Centroids > 256 {
		return fmt.Errorf("retrieval: pq: centroids=%d out of range [1, 256]", cfg.Centroids)
	}
	if cfg.Centroids > n {
		return fmt.Errorf("retrieval: pq: centroids=%d exceeds gallery size %d", cfg.Centroids, n)
	}
	if cfg.RerankDepth < 1 {
		return fmt.Errorf("retrieval: pq: rerank depth %d < 1", cfg.RerankDepth)
	}
	return nil
}

// pqTel holds the PQ scan instruments (write-only; the all-nil zero value
// is the disabled state, mirroring engineTel).
type pqTel struct {
	// scanNs times the ADC code scan per query (pq.adc_ns — distinct from
	// the owning engine's embed-excluded scan_ns, which also covers the
	// re-rank).
	scanNs *telemetry.Histogram
	// rerankNs times the exact re-rank per query.
	rerankNs *telemetry.Histogram
	// codes counts code rows scanned across all queries.
	codes *telemetry.Counter
	// reranked counts candidates re-ranked exactly across all queries.
	reranked *telemetry.Counter
}

func resolvePQTel(r *telemetry.Registry) pqTel {
	return pqTel{
		scanNs:   r.Latency("pq.adc_ns"),
		rerankNs: r.Latency("pq.rerank_ns"),
		codes:    r.Counter("pq.codes_scanned"),
		reranked: r.Counter("pq.reranked"),
	}
}

// pqScratch is the pooled per-query workspace: the ADC lookup table, the
// candidate-selection scratch, and the re-rank buffer. It is also the code
// scan's block scorer, re-targeted per query through the codes/lut
// fields, so handing it to the kernel allocates nothing.
type pqScratch struct {
	lut []float64
	idx idxScratch
	res []Result

	codes   []byte
	nsub, k int
}

// scoreBlock writes the ADC distances of code rows lo, lo+1, … into keys,
// four rows per pass: each row's distance is its own fixed-order sum of
// nsub lookup-table cells, starting from 0.
func (sc *pqScratch) scoreBlock(keys []float64, lo int) {
	nsub, k, lut := sc.nsub, sc.k, sc.lut
	codes := sc.codes[lo*nsub : (lo+len(keys))*nsub]
	j := 0
	for ; j+4 <= len(keys); j += 4 {
		c0 := codes[j*nsub : (j+1)*nsub]
		c1 := codes[(j+1)*nsub:][:len(c0)]
		c2 := codes[(j+2)*nsub:][:len(c0)]
		c3 := codes[(j+3)*nsub:][:len(c0)]
		s0, s1, s2, s3 := 0.0, 0.0, 0.0, 0.0
		for sub, c := range c0 {
			base := sub * k
			s0 += lut[base+int(c)]
			s1 += lut[base+int(c1[sub])]
			s2 += lut[base+int(c2[sub])]
			s3 += lut[base+int(c3[sub])]
		}
		keys[j], keys[j+1], keys[j+2], keys[j+3] = s0, s1, s2, s3
	}
	for ; j < len(keys); j++ {
		s := 0.0
		for sub, c := range codes[j*nsub : (j+1)*nsub] {
			s += lut[sub*k+int(c)]
		}
		keys[j] = s
	}
}

// PQIndex is a model-free product-quantized gallery index: codebooks and
// the byte code matrix over the same gallery store the exact tiers scan.
// It answers raw-feature queries (the node-side GalleryIndex surface) and
// is persisted by persist.go. All storage is read-only after
// construction, so a loaded index aliases a memory-mapped file directly.
type PQIndex struct {
	// g holds identity metadata and the exact feature rows. The rows are
	// read by the re-rank only — the ADC scan never touches them, which is
	// what makes the scan cheap and the mmap'd layout lazy.
	g gallery

	nsub   int
	k      int
	rerank int

	// codebooks holds the nsub codebooks back to back: codebook s occupies
	// codebooks[s*k*w_s ...] with w_s = Bounds(dim, nsub, s) width; entry j
	// is w_s contiguous floats. Total length k*dim.
	codebooks []float64
	// cbOff[s] is the float offset of codebook s; cbOff[nsub] == k*dim.
	cbOff []int
	// codes is the n×nsub row-major code matrix.
	codes []byte

	scratch sync.Pool
	tel     pqTel
}

var _ GalleryIndex = (*PQIndex)(nil)

// pqSubWidth returns the [lo, hi) coordinate range of subspace s, reusing
// the deterministic contiguous split of parallel.Bounds.
func pqSubBounds(dim, nsub, s int) (lo, hi int) { return parallel.Bounds(dim, nsub, s) }

// pqCodebookOffsets computes the per-subspace float offsets into the flat
// codebook storage.
func pqCodebookOffsets(dim, nsub, k int) []int {
	off := make([]int, nsub+1)
	for s := 0; s < nsub; s++ {
		lo, hi := pqSubBounds(dim, nsub, s)
		off[s+1] = off[s] + k*(hi-lo)
	}
	return off
}

// NewPQIndex trains a product-quantized index over the feature rows.
// ids/labels/feats are parallel slices; every feature must share one
// dimension, and the index views the features' storage (its re-rank rows)
// rather than copying it, so the tensors must not be written afterwards.
// Training is deterministic: each subspace codebook is fit by the seeded
// KMeans with an independent per-subspace seed, so the result is
// bitwise-identical at every worker count.
func NewPQIndex(ids []string, labels []int, feats []*tensor.Tensor, cfg PQConfig) (*PQIndex, error) {
	g, err := galleryFromRows(ids, labels, feats)
	if err != nil {
		return nil, err
	}
	n := g.size()
	if n == 0 {
		return nil, fmt.Errorf("retrieval: pq: empty gallery")
	}
	if cfg.KMeansIters <= 0 {
		cfg.KMeansIters = 25
	}
	if err := cfg.validate(n, g.dim); err != nil {
		return nil, err
	}

	ix := &PQIndex{
		g:      g,
		nsub:   cfg.Subspaces,
		k:      cfg.Centroids,
		rerank: cfg.RerankDepth,
		cbOff:  pqCodebookOffsets(g.dim, cfg.Subspaces, cfg.Centroids),
		codes:  make([]byte, n*cfg.Subspaces),
	}
	ix.codebooks = make([]float64, ix.cbOff[ix.nsub])

	// Train the nsub codebooks concurrently. Each subspace draws from its
	// own seeded generator, so the fit is independent of the worker count
	// and of training order.
	errs := make([]error, ix.nsub)
	parallel.For(ix.nsub, func(_, start, end int) {
		for s := start; s < end; s++ {
			errs[s] = ix.trainSubspace(s, cfg)
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return ix, nil
}

// trainSubspace fits codebook s and writes the codes of its coordinate
// range. Only state owned by subspace s is touched.
func (ix *PQIndex) trainSubspace(s int, cfg PQConfig) error {
	lo, hi := pqSubBounds(ix.g.dim, ix.nsub, s)
	w := hi - lo
	sub := make([]*tensor.Tensor, ix.g.size())
	for i := range sub {
		sub[i] = tensor.From(ix.g.rows[i][lo:hi], w)
	}
	// Decorrelate per-subspace streams with a large odd stride so nearby
	// subspaces never share a seed.
	rng := rand.New(rand.NewSource(cfg.Seed + int64(s)*0x9E3779B9))
	km, err := KMeans(rng, sub, ix.k, cfg.KMeansIters)
	if err != nil {
		return fmt.Errorf("retrieval: pq: subspace %d: %w", s, err)
	}
	for j, c := range km.Centroids {
		copy(ix.codebooks[ix.cbOff[s]+j*w:ix.cbOff[s]+(j+1)*w], c.Data())
	}
	for i, a := range km.Assign {
		ix.codes[i*ix.nsub+s] = byte(a)
	}
	return nil
}

// SetTelemetry wires the index's scan instruments into the registry under
// the "pq" prefix; nil disables (the default). Write-only: enabling it
// cannot change any retrieval result.
func (ix *PQIndex) SetTelemetry(r *telemetry.Registry) { ix.tel = resolvePQTel(r) }

// Size returns the number of indexed entries.
func (ix *PQIndex) Size() int { return ix.g.size() }

// Dim returns the feature dimension.
func (ix *PQIndex) Dim() int { return ix.g.dim }

// RerankDepth returns the index's fixed exact re-rank depth.
func (ix *PQIndex) RerankDepth() int { return ix.rerank }

// Close releases the index's backing storage (the memory mapping for an
// index opened from a file; a no-op otherwise). The index must not be used
// after Close.
func (ix *PQIndex) Close() error {
	if ix.g.closer != nil {
		ix.codebooks, ix.codes = nil, nil
	}
	return ix.g.close()
}

// effectiveRerank is the candidate count actually re-ranked for a query
// asking for m results: the fixed depth, raised to m, capped at the
// gallery size.
func (ix *PQIndex) effectiveRerank(m int) int {
	r := ix.rerank
	if r < m {
		r = m
	}
	if n := ix.g.size(); r > n {
		r = n
	}
	return r
}

// Nearest returns the index's top-m entries for the query feature,
// single-threaded (the cluster's node fan-out is the unit of parallelism,
// exactly like Shard.Nearest).
func (ix *PQIndex) Nearest(feat []float64, m int) []Result {
	return ix.nearest(feat, m, 1)
}

// nearest is the PQ query hot path: adcSelect into the pooled scratch,
// then copy the top-m into a fresh caller-owned slice.
func (ix *PQIndex) nearest(feat []float64, m, workers int) []Result {
	ix.g.checkQuery(feat)
	n := ix.g.size()
	if m > n {
		m = n
	}
	if m < 0 {
		m = 0
	}
	out := make([]Result, m)
	if m == 0 {
		return out
	}

	sc, _ := ix.scratch.Get().(*pqScratch)
	if sc == nil {
		sc = new(pqScratch)
	}
	defer ix.scratch.Put(sc)

	res := ix.adcSelect(feat, m, workers, sc)
	copy(out, res[:m])
	return out
}

// adcSelect is the allocation-free core of a PQ query: build the ADC
// lookup table in the scratch, select the re-rank candidates from the code
// matrix with the sharded top-R scan, and re-rank them exactly. Candidate
// selection orders by (ADC distance, ID) and re-ranking orders by (exact
// distance, ID) — both strict total orders — so the output is
// bitwise-identical at every worker count. The returned slice aliases
// sc.res (≥ m entries for m ≤ gallery size) and is valid until the next
// select with the same scratch; with a warm scratch and telemetry
// disabled it performs zero heap allocations.
func (ix *PQIndex) adcSelect(feat []float64, m, workers int, sc *pqScratch) []Result {
	n := ix.g.size()

	// ADC lookup table: lut[s*k+j] = ‖query_s − codebook_s[j]‖². Each cell
	// is independent; the table is dim*k float ops, negligible next to the
	// scan it replaces.
	if cap(sc.lut) < ix.nsub*ix.k {
		sc.lut = make([]float64, ix.nsub*ix.k)
	}
	lut := sc.lut[:ix.nsub*ix.k]
	for s := 0; s < ix.nsub; s++ {
		lo, hi := pqSubBounds(ix.g.dim, ix.nsub, s)
		q := feat[lo:hi]
		w := hi - lo
		cb := ix.codebooks[ix.cbOff[s]:ix.cbOff[s+1]]
		for j := 0; j < ix.k; j++ {
			lut[s*ix.k+j] = l2sq(q, cb[j*w:(j+1)*w])
		}
	}

	// Sharded candidate scan over the code matrix. The per-row score is a
	// fixed-order sum of nsub table cells, so it is a pure function of the
	// row — sharding cannot change a single bit of it. The scratch is the
	// block scorer (see scoreBlock); re-target it at this query's table and
	// codes.
	R := ix.effectiveRerank(m)
	sc.lut, sc.codes, sc.nsub, sc.k = lut, ix.codes, ix.nsub, ix.k
	sw := ix.tel.scanNs.Start()
	cands := scanTopMIdx(n, R, workers, sc, false, ix.g.ids, &sc.idx)
	sw.Stop()
	ix.tel.codes.Add(int64(n))

	// Exact re-rank at fixed depth: candidates get their true distances
	// (bitwise-identical to the exact engine's) and the final order is the
	// service-wide (Dist, ID) order.
	sw = ix.tel.rerankNs.Start()
	res := sc.res[:0]
	for _, cd := range cands {
		res = append(res, Result{
			ID:    ix.g.ids[cd.row],
			Label: ix.g.labels[cd.row],
			Dist:  math.Sqrt(l2sq(feat, ix.g.rows[cd.row])),
		})
	}
	slices.SortFunc(res, cmpResult)
	sc.res = res
	sw.Stop()
	ix.tel.reranked.Add(int64(len(res)))
	return res
}
