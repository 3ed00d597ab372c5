package retrieval

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"duo/internal/tensor"
)

// pqADC computes the ADC approximation for gallery row i exactly the way
// the scan's lookup table does: per-subspace squared distance from the
// query slice to the row's assigned codebook entry, summed in subspace
// order.
func pqADC(ix *PQIndex, feat []float64, i int) float64 {
	s := 0.0
	for sub := 0; sub < ix.nsub; sub++ {
		lo, hi := pqSubBounds(ix.g.dim, ix.nsub, sub)
		w := hi - lo
		j := int(ix.codes[i*ix.nsub+sub])
		cb := ix.codebooks[ix.cbOff[sub]+j*w : ix.cbOff[sub]+(j+1)*w]
		s += l2sq(feat[lo:hi], cb)
	}
	return s
}

// pqReconstruct returns row i's quantized reconstruction (its codebook
// entries concatenated across subspaces).
func pqReconstruct(ix *PQIndex, i int) []float64 {
	rec := make([]float64, ix.g.dim)
	for sub := 0; sub < ix.nsub; sub++ {
		lo, hi := pqSubBounds(ix.g.dim, ix.nsub, sub)
		w := hi - lo
		j := int(ix.codes[i*ix.nsub+sub])
		copy(rec[lo:hi], ix.codebooks[ix.cbOff[sub]+j*w:ix.cbOff[sub]+(j+1)*w])
	}
	return rec
}

// pqCheckADCBound asserts the two properties that make ADC a sound
// candidate filter, for every gallery row against one query:
//
//  1. The ADC value IS the squared distance to the row's reconstruction
//     (same numbers summed in a different grouping — equal up to float
//     associativity).
//  2. The triangle inequality ties ADC to the true distance through the
//     quantization residual r = ‖x − recon(x)‖:
//     (d − r)² ≤ adc ≤ (d + r)², with d the true query–row distance.
func pqCheckADCBound(t *testing.T, ix *PQIndex, feat []float64) {
	t.Helper()
	for i := 0; i < ix.Size(); i++ {
		row := ix.g.rows[i]
		rec := pqReconstruct(ix, i)
		adc := pqADC(ix, feat, i)

		recDist := l2sq(feat, rec)
		tol := 1e-9 * (1 + math.Abs(recDist))
		if math.Abs(adc-recDist) > tol {
			t.Fatalf("row %d: adc %g differs from ‖q−recon‖² %g beyond float regrouping", i, adc, recDist)
		}

		d := math.Sqrt(l2sq(feat, row))
		r := math.Sqrt(l2sq(row, rec))
		lo := d - r
		if lo < 0 {
			lo = 0
		}
		loSq, hiSq := lo*lo, (d+r)*(d+r)
		tol = 1e-9 * (1 + hiSq)
		if adc < loSq-tol || adc > hiSq+tol {
			t.Fatalf("row %d: adc %g outside residual bound [%g, %g] (d=%g r=%g)", i, adc, loSq, hiSq, d, r)
		}
	}
}

// TestPQADCBoundProperty checks the residual bound across several random
// clustered instances and queries.
func TestPQADCBoundProperty(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		ids, labels, feats := pqTestData(30+seed, 40, 8)
		cfg := pqTestConfig()
		cfg.Seed = seed
		ix, err := NewPQIndex(ids, labels, feats, cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, _, qs := pqTestData(60+seed, 5, 8)
		for _, q := range qs {
			pqCheckADCBound(t, ix, q.Data())
		}
	}
}

// TestPQADCExactWhenCodebookCovers: with one centroid per distinct point
// (k = n) the reconstruction is the point itself, the residual collapses
// to zero, and ADC must equal the true squared distance up to float
// regrouping — the quantizer is lossless when it can afford to be.
func TestPQADCExactWhenCodebookCovers(t *testing.T) {
	ids, labels, feats := pqTestData(70, 24, 8)
	cfg := pqTestConfig()
	cfg.Centroids = len(ids)
	cfg.KMeansIters = 30
	ix, err := NewPQIndex(ids, labels, feats, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range feats {
		row := ix.g.rows[i]
		rec := pqReconstruct(ix, i)
		if r := math.Sqrt(l2sq(row, rec)); r > 1e-9 {
			t.Fatalf("row %d: residual %g with k=n, want ≈ 0", i, r)
		}
	}
	_, _, qs := pqTestData(71, 4, 8)
	for _, q := range qs {
		feat := q.Data()
		for i := range feats {
			row := ix.g.rows[i]
			d2 := l2sq(feat, row)
			adc := pqADC(ix, feat, i)
			if tol := 1e-9 * (1 + d2); math.Abs(adc-d2) > tol {
				t.Fatalf("row %d: adc %g vs exact %g with zero residual", i, adc, d2)
			}
		}
	}
}

// FuzzPQADCBound fuzzes index shapes and data seeds through the residual
// bound: whatever the subspace split, codebook size, or data, ADC must
// stay inside the quantization-residual envelope of the true distance.
func FuzzPQADCBound(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(6), uint8(3), uint8(4))
	f.Add(int64(2), uint8(30), uint8(8), uint8(8), uint8(16))
	f.Add(int64(3), uint8(5), uint8(1), uint8(1), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, dimRaw, nsubRaw, kRaw uint8) {
		n := 1 + int(nRaw)%40
		dim := 1 + int(dimRaw)%12
		nsub := 1 + int(nsubRaw)%dim
		k := 1 + int(kRaw)%n
		if k > 256 {
			k = 256
		}

		rng := rand.New(rand.NewSource(seed))
		ids := make([]string, n)
		labels := make([]int, n)
		feats := make([]*tensor.Tensor, n)
		for i := range feats {
			v := make([]float64, dim)
			for d := range v {
				v[d] = rng.NormFloat64() * 3
			}
			ids[i] = fmt.Sprintf("f%03d", i)
			labels[i] = i % 3
			feats[i] = tensor.From(v, dim)
		}
		ix, err := NewPQIndex(ids, labels, feats, PQConfig{
			Subspaces: nsub, Centroids: k, KMeansIters: 8, Seed: seed, RerankDepth: 4,
		})
		if err != nil {
			t.Fatalf("valid fuzzed config rejected (n=%d dim=%d nsub=%d k=%d): %v", n, dim, nsub, k, err)
		}
		q := make([]float64, dim)
		for d := range q {
			q[d] = rng.NormFloat64() * 3
		}
		pqCheckADCBound(t, ix, q)

		// The scan must agree with brute force over ADC values: its
		// candidate set is the R smallest (adc, id) pairs, and full-depth
		// re-rank equals the exact scan.
		full, err := NewPQIndex(ids, labels, feats, PQConfig{
			Subspaces: nsub, Centroids: k, KMeansIters: 8, Seed: seed, RerankDepth: n,
		})
		if err != nil {
			t.Fatal(err)
		}
		exact := NewShardFromFeatures(ids, labels, feats)
		m := 1 + int(nRaw)%7
		a, b := exact.Nearest(q, m), full.Nearest(q, m)
		for i := range a {
			if a[i].ID != b[i].ID || math.Float64bits(a[i].Dist) != math.Float64bits(b[i].Dist) {
				t.Fatalf("full-rerank rank %d: exact %+v vs pq %+v", i, a[i], b[i])
			}
		}
	})
}
