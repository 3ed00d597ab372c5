package retrieval

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"duo/internal/tensor"
)

// FuzzScanTopM mode bits.
const (
	// fuzzTieAtM picks m so the m-th and (m+1)-th reference entries tie on
	// distance: the ID alone decides which one is kept.
	fuzzTieAtM = 1 << iota
	// fuzzSubnormal scales query and rows by 1e-160, so squared distances
	// are subnormal and the exact scan's squared-distance skip must fall
	// back to comparing rooted distances.
	fuzzSubnormal
	// fuzzExtremes puts about a quarter of the rows on the query (distance
	// 0) or at 1e160 scale (the squared distance overflows to +Inf, so those
	// rows tie at +Inf and the ID decides).
	fuzzExtremes
	// fuzzWide adds 2·scanMinShard rows, so the scan really shards.
	fuzzWide
)

// FuzzScanTopM cross-checks the sharded top-m scan against the naive
// sort-everything oracle (`nearest`) over random gallery sizes (every
// remainder of the kernel's four-row passes), heavily duplicated
// distances, IDs in random order against the rows, out-of-range m, and
// several worker counts. It runs the kernel both ways it is used: rooted
// (the exact scan) and on raw keys (the PQ code scan), against a
// sort-everything oracle over the same keys. Any bitwise divergence —
// order, ties, labels — is a determinism-contract violation.
func FuzzScanTopM(f *testing.F) {
	f.Add(int64(1), uint8(10), int8(3), uint8(0))
	f.Add(int64(2), uint8(0), int8(5), uint8(0))
	f.Add(int64(3), uint8(1), int8(-2), uint8(0))
	f.Add(int64(4), uint8(50), int8(100), uint8(0)) // m far larger than gallery
	f.Add(int64(5), uint8(7), int8(7), uint8(0))
	f.Add(int64(6), uint8(41), int8(0), uint8(fuzzTieAtM))
	f.Add(int64(7), uint8(22), int8(4), uint8(fuzzSubnormal|fuzzTieAtM))
	f.Add(int64(8), uint8(63), int8(9), uint8(fuzzExtremes|fuzzTieAtM))
	f.Add(int64(9), uint8(13), int8(10), uint8(fuzzWide|fuzzTieAtM))
	f.Add(int64(10), uint8(3), int8(20), uint8(fuzzWide|fuzzExtremes|fuzzSubnormal))

	f.Fuzz(func(t *testing.T, seed int64, nRaw uint8, mRaw int8, mode uint8) {
		n := int(nRaw) % 64
		if mode&fuzzWide != 0 {
			n += 2 * scanMinShard
		}
		m := int(mRaw)
		rng := rand.New(rand.NewSource(seed))
		scale := 1.0
		if mode&fuzzSubnormal != 0 {
			scale = 1e-160
		}

		query := tensor.From([]float64{float64(rng.Intn(4)) * scale, 0}, 2)
		ids := make([]string, n)
		labels := make([]int, n)
		feats := make([]*tensor.Tensor, n)
		for i, p := range rng.Perm(n) {
			// Unique IDs (the service-wide invariant) in an order unrelated
			// to the rows', so a later row can win a tie; coarse feature
			// values so duplicate distances are the common case, not the
			// edge case.
			ids[i] = fmt.Sprintf("v%05d", p)
			labels[i] = rng.Intn(4)
			x, y := float64(rng.Intn(4))*scale, float64(rng.Intn(2))*scale
			if mode&fuzzExtremes != 0 {
				switch rng.Intn(8) {
				case 0:
					x, y = query.Data()[0], query.Data()[1]
				case 1:
					x, y = float64(1+rng.Intn(4))*1e160, float64(1+rng.Intn(2))*1e160
				}
			}
			feats[i] = tensor.From([]float64{x, y}, 2)
		}
		if mode&fuzzTieAtM != 0 {
			all := nearest(query, ids, labels, feats, n)
			var ties []int
			for k := 1; k < n; k++ {
				if all[k-1].Dist == all[k].Dist {
					ties = append(ties, k)
				}
			}
			if len(ties) > 0 {
				m = ties[rng.Intn(len(ties))]
			}
		}

		want := nearest(query, ids, labels, feats, m)
		keys := make(keyScorer, n)
		for i, r := range feats {
			keys[i] = query.SquaredDistance(r)
		}
		wantKeys := keyOracle(keys, ids, m)
		for _, w := range []int{1, 2, 3, 7} {
			got := scanRows(query, ids, labels, feats, m, w, nil)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed=%d n=%d m=%d mode=%d workers=%d:\n got %v\nwant %v", seed, n, m, mode, w, got, want)
			}
			// The pooled-scratch path must agree with the fresh-scratch path.
			sc := new(galleryScratch)
			again := scanRows(query, ids, labels, feats, m, w, sc)
			reused := scanRows(query, ids, labels, feats, m, w, sc)
			if !reflect.DeepEqual(again, want) || !reflect.DeepEqual(reused, want) {
				t.Fatalf("seed=%d n=%d m=%d mode=%d workers=%d: scratch reuse diverged", seed, n, m, mode, w)
			}
			var isc idxScratch
			if gotKeys := scanTopMIdx(n, m, w, keys, false, ids, &isc); !sameScored(gotKeys, wantKeys) {
				t.Fatalf("seed=%d n=%d m=%d mode=%d workers=%d: key scan diverged\n got %v\nwant %v", seed, n, m, mode, w, gotKeys, wantKeys)
			}
		}
	})
}

// keyScorer is a block scorer over precomputed keys, the shape of the PQ
// code scan (keys are the order, nothing is rooted).
type keyScorer []float64

func (k keyScorer) scoreBlock(keys []float64, lo int) { copy(keys, k[lo:lo+len(keys)]) }

// keyOracle sorts every row by (key, ID) and keeps the first m.
func keyOracle(keys []float64, ids rowOrder, m int) []scored {
	all := make([]scored, len(keys))
	for i, k := range keys {
		all[i] = scored{row: i, dist: k}
	}
	slices.SortFunc(all, ids.cmp)
	return all[:max(0, min(m, len(all)))]
}

// sameScored compares two selections bit for bit; an empty selection
// equals nil.
func sameScored(a, b []scored) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].row != b[i].row || math.Float64bits(a[i].dist) != math.Float64bits(b[i].dist) {
			return false
		}
	}
	return true
}

// TestScanSkipKeepsRootedTies pins the exact scan's squared-distance skip
// where sqrt is not injective: keys just above a squared distance s that
// root to the same √s tie with it, so the ID must decide, and no bound
// derived from the rooted heap root may drop them. Each case pits the
// float64s that share s's root against s under both ID orders, at normal
// and subnormal scale.
func TestScanSkipKeepsRootedTies(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	collisions := 0
	for c := 0; c < 400; c++ {
		s := (1 + rng.Float64()) * math.Ldexp(1, rng.Intn(200)-100)
		if c%4 == 3 {
			s = float64(1+rng.Intn(1<<20)) * 0x1p-1074 // subnormal
		}
		keys := keyScorer{s}
		for k := math.Nextafter(s, math.Inf(1)); math.Sqrt(k) == math.Sqrt(s); k = math.Nextafter(k, math.Inf(1)) {
			keys = append(keys, k)
		}
		for k := math.Nextafter(s, 0); math.Sqrt(k) == math.Sqrt(s); k = math.Nextafter(k, 0) {
			keys = append(keys, k)
		}
		if len(keys) > 1 {
			collisions++
		}
		keys = append(keys, 2*s, s/2) // a row past the root and one before it
		n := len(keys)
		rooted := make([]float64, n)
		for i, k := range keys {
			rooted[i] = math.Sqrt(k)
		}
		for _, order := range []rowOrder{ascendingIDs(n), descendingIDs(n)} {
			for m := 1; m <= n; m++ {
				var isc idxScratch
				got := scanTopMIdx(n, m, 1, keys, true, order, &isc)
				if want := keyOracle(rooted, order, m); !sameScored(got, want) {
					t.Fatalf("keys %v ids %v m=%d:\n got %v\nwant %v", keys, order, m, got, want)
				}
			}
		}
	}
	if collisions == 0 {
		t.Fatal("no case had two squared distances with one root; the test pins nothing")
	}
}

func ascendingIDs(n int) rowOrder {
	ids := make(rowOrder, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("r%03d", i)
	}
	return ids
}

func descendingIDs(n int) rowOrder {
	ids := ascendingIDs(n)
	slices.Reverse(ids)
	return ids
}
