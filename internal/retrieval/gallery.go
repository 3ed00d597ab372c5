package retrieval

import (
	"fmt"
	"sync"

	"duo/internal/models"
	"duo/internal/tensor"
	"duo/internal/video"
)

// gallery is the one in-memory feature store behind Engine, Shard and
// PQIndex: identity metadata plus n feature rows of one dimension. Rows are
// views: over the feats section of an index file when the gallery was
// loaded from one (persist.go; used in place, from a read-only mapping
// where the platform allows), over the caller's tensors when it was built
// from rows, so a gallery never holds a second copy of features its
// caller keeps. A gallery is read-only after construction.
type gallery struct {
	ids    []string
	labels []int
	dim    int
	rows   [][]float64
	// closer releases the file mapping the rows view (nil for a gallery
	// built in process or copy-decoded).
	closer func() error
}

// close releases the gallery's file mapping, dropping the rows that view
// it; a gallery without one keeps its rows, and a second close is a no-op.
func (g *gallery) close() error {
	c := g.closer
	if c == nil {
		return nil
	}
	g.closer, g.rows = nil, nil
	return c()
}

// checkShape is the single place the store's shape invariants are stated,
// for in-process constructors and index files alike; the scan itself never
// re-checks a row.
func checkShape(ids []string, labels []int, dim int) error {
	if len(ids) != len(labels) {
		return fmt.Errorf("retrieval: index has %d ids but %d labels", len(ids), len(labels))
	}
	if dim <= 0 && len(ids) > 0 {
		return fmt.Errorf("retrieval: index has non-positive feature dim %d", dim)
	}
	return nil
}

// newGallery validates a gallery stored as one n×dim row-major matrix (the
// on-disk shape) and views it in place.
func newGallery(ids []string, labels []int, dim int, feats []float64) (gallery, error) {
	if err := checkShape(ids, labels, dim); err != nil {
		return gallery{}, err
	}
	n := len(ids)
	// Division, not n*dim: a hostile header must not overflow its way past
	// the check.
	if (n == 0 && len(feats) != 0) || (n > 0 && (len(feats)%dim != 0 || len(feats)/dim != n)) {
		return gallery{}, fmt.Errorf("retrieval: index has %d feature values, want %d rows of dim %d", len(feats), n, dim)
	}
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = feats[i*dim : (i+1)*dim : (i+1)*dim]
	}
	return gallery{ids: ids, labels: labels, dim: dim, rows: rows}, nil
}

// galleryFromRows builds a gallery over parallel id/label/feature-row
// slices, rejecting ragged rows. ids and labels are copied; the rows'
// storage is aliased, not copied, so the tensors must not be written
// afterwards.
func galleryFromRows(ids []string, labels []int, feats []*tensor.Tensor) (gallery, error) {
	if len(ids) != len(feats) {
		return gallery{}, fmt.Errorf("retrieval: %d ids for %d features", len(ids), len(feats))
	}
	dim := 0
	if len(feats) > 0 {
		dim = feats[0].Len()
	}
	if err := checkShape(ids, labels, dim); err != nil {
		return gallery{}, err
	}
	rows := make([][]float64, len(feats))
	for i, f := range feats {
		if f.Len() != dim {
			return gallery{}, fmt.Errorf("retrieval: feature %d has dim %d, want %d", i, f.Len(), dim)
		}
		rows[i] = f.Data()
	}
	return gallery{ids: append([]string(nil), ids...), labels: append([]int(nil), labels...), dim: dim, rows: rows}, nil
}

// mustGallery unwraps a gallery built from in-process data: a malformed
// one there is a caller bug, not input.
func mustGallery(g gallery, err error) gallery {
	if err != nil {
		panic(err.Error())
	}
	return g
}

// embedGallery indexes the videos under the extractor (indexing happens
// once, at ingest, exactly as in Fig. 1).
func embedGallery(m models.Model, vs []*video.Video) gallery {
	ids := make([]string, len(vs))
	labels := make([]int, len(vs))
	rows := make([]*tensor.Tensor, len(vs))
	for i, v := range vs {
		ids[i], labels[i], rows[i] = v.ID, v.Label, models.Embed(m, v)
	}
	return mustGallery(galleryFromRows(ids, labels, rows))
}

func (g *gallery) size() int { return len(g.ids) }

// checkQuery is the per-query half of the shape contract: rows were
// validated at construction, so one length check per query replaces a
// per-row one. An empty gallery has no dimension to mismatch.
func (g *gallery) checkQuery(q []float64) {
	if g.size() > 0 && len(q) != g.dim {
		panic(fmt.Sprintf("retrieval: query dim %d, index dim %d", len(q), g.dim))
	}
}

// l2sq is the flat-slice squared L2 distance. The loop mirrors
// tensor.SquaredDistance element for element, so distances are
// bitwise-identical to the tensor-based ones the goldens were frozen with.
func l2sq(a, b []float64) float64 {
	s := 0.0
	for i, v := range a {
		d := v - b[i]
		s += d * d
	}
	return s
}

// l2sq4 is l2sq of a against four rows at once: each row keeps its own
// accumulator and adds its terms in l2sq's order, so every sum has l2sq's
// bits, while the four independent chains overlap in the pipeline. The
// rows must be at least len(a) long.
func l2sq4(a, r0, r1, r2, r3 []float64) (s0, s1, s2, s3 float64) {
	r0, r1, r2, r3 = r0[:len(a)], r1[:len(a)], r2[:len(a)], r3[:len(a)]
	for i, v := range a {
		d0, d1, d2, d3 := v-r0[i], v-r1[i], v-r2[i], v-r3[i]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	return s0, s1, s2, s3
}

// galleryScratch is the pooled per-query workspace of an exact scan,
// re-targeted per query through the g/q fields. It is also the scan's
// block scorer, so handing it to the kernel allocates nothing.
type galleryScratch struct {
	idx idxScratch
	g   *gallery
	q   []float64
}

// scoreBlock writes the squared distance of q to rows lo, lo+1, … into
// keys, four rows per pass. The kernel roots the keys it keeps: rows are
// ordered by the rooted distance, not the squared one, because sqrt is
// monotone but not injective in float64, so selecting on squares could
// flip an ID tie-break.
func (sc *galleryScratch) scoreBlock(keys []float64, lo int) {
	rows := sc.g.rows[lo : lo+len(keys)]
	q := sc.q
	for len(rows) >= 4 {
		keys[0], keys[1], keys[2], keys[3] = l2sq4(q, rows[0], rows[1], rows[2], rows[3])
		rows, keys = rows[4:], keys[4:]
	}
	for j, r := range rows {
		keys[j] = l2sq(q, r)
	}
}

// topM writes the gallery's m nearest entries to q into dst (grown only
// when its capacity is short) in the service-wide (Dist, ID) order,
// scanning with up to `workers` shards. The list is bitwise-identical at
// every worker count; m is clamped to [0, size] before anything is
// allocated. With a warm scratch and dst a single-worker scan performs
// zero heap allocations.
func (g *gallery) topM(dst []Result, q []float64, m, workers int, sc *galleryScratch) []Result {
	g.checkQuery(q)
	if n := g.size(); m > n {
		m = n
	}
	if m < 0 {
		m = 0
	}
	if cap(dst) < m || dst == nil {
		dst = make([]Result, m) // non-nil even for m == 0
	}
	dst = dst[:m]
	sc.g, sc.q = g, q
	for i, c := range scanTopMIdx(g.size(), m, workers, sc, true, g.ids, &sc.idx) {
		dst[i] = Result{ID: g.ids[c.row], Label: g.labels[c.row], Dist: c.dist}
	}
	return dst
}

// pooledTopM is topM into a fresh caller-owned slice with a scratch drawn
// from the owner's pool (a zero-value pool works), so a steady-state query
// allocates only its result list, never an O(gallery) temporary.
func (g *gallery) pooledTopM(pool *sync.Pool, q []float64, m, workers int) []Result {
	sc, _ := pool.Get().(*galleryScratch)
	if sc == nil {
		sc = new(galleryScratch)
	}
	rs := g.topM(nil, q, m, workers, sc)
	pool.Put(sc)
	return rs
}
