package retrieval

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"duo/internal/tensor"
)

// FuzzScanTopM cross-checks the sharded top-m scan against the naive
// sort-everything oracle (`nearest`) over random gallery sizes, heavily
// duplicated distances, out-of-range m, and several worker counts. Any
// bitwise divergence — order, ties, labels — is a determinism-contract
// violation.
func FuzzScanTopM(f *testing.F) {
	f.Add(int64(1), uint8(10), int8(3))
	f.Add(int64(2), uint8(0), int8(5))
	f.Add(int64(3), uint8(1), int8(-2))
	f.Add(int64(4), uint8(50), int8(100)) // m far larger than gallery
	f.Add(int64(5), uint8(7), int8(7))

	f.Fuzz(func(t *testing.T, seed int64, nRaw uint8, mRaw int8) {
		n := int(nRaw) % 64
		m := int(mRaw)
		rng := rand.New(rand.NewSource(seed))

		ids := make([]string, n)
		labels := make([]int, n)
		feats := make([]*tensor.Tensor, n)
		for i := 0; i < n; i++ {
			// Unique IDs (the service-wide invariant), coarse feature values
			// so duplicate distances are the common case, not the edge case.
			ids[i] = fmt.Sprintf("v%03d", i)
			labels[i] = rng.Intn(4)
			feats[i] = tensor.From([]float64{float64(rng.Intn(4)), float64(rng.Intn(2))}, 2)
		}
		query := tensor.From([]float64{float64(rng.Intn(4)), 0}, 2)

		want := nearest(query, ids, labels, feats, m)
		for _, w := range []int{1, 2, 3, 7} {
			got := scanRows(query, ids, labels, feats, m, w, nil)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed=%d n=%d m=%d workers=%d:\n got %v\nwant %v", seed, n, m, w, got, want)
			}
			// The pooled-scratch path must agree with the fresh-scratch path.
			sc := new(galleryScratch)
			again := scanRows(query, ids, labels, feats, m, w, sc)
			reused := scanRows(query, ids, labels, feats, m, w, sc)
			if !reflect.DeepEqual(again, want) || !reflect.DeepEqual(reused, want) {
				t.Fatalf("seed=%d n=%d m=%d workers=%d: scratch reuse diverged", seed, n, m, w)
			}
		}
	})
}
