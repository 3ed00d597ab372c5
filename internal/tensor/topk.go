package tensor

import (
	"cmp"
	"math"
	"slices"
	"sort"
)

// ArgsortDesc returns the indices that would sort vals in descending order.
// The input is not modified. Ties keep ascending index order, which makes
// the result deterministic.
func ArgsortDesc(vals []float64) []int {
	idx := make([]int, len(vals))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return vals[idx[a]] > vals[idx[b]] })
	return idx
}

// TopK returns the indices of the k largest values in vals, in descending
// value order with ties in ascending index order: the first k entries of
// ArgsortDesc(vals). k is clamped to len(vals).
//
// Rather than stable-sorting every index, TopK selects the k-th largest
// value, keeps everything above it plus the lowest-index entries equal to
// it, and orders only those k indices. Inputs holding a NaN, which has no
// place in a total order, take the ArgsortDesc path.
func TopK(vals []float64, k int) []int {
	k = max(0, min(k, len(vals)))
	if k == 0 || slices.ContainsFunc(vals, math.IsNaN) {
		return ArgsortDesc(vals)[:k]
	}
	kth := selectNth(slices.Clone(vals), len(vals)-k)
	idx := make([]int, 0, k)
	for i, v := range vals {
		if v > kth {
			idx = append(idx, i)
		}
	}
	for i, v := range vals {
		if len(idx) < k && v == kth { // kth is one of vals: exact equality is the tie the order breaks by index
			idx = append(idx, i)
		}
	}
	slices.SortFunc(idx, func(a, b int) int { return cmp.Or(cmp.Compare(vals[b], vals[a]), a-b) })
	return idx
}

// selectNth returns the value that ascending order puts at position n of a
// (no NaN), reordering a. It is Hoare's selection with a median-of-three
// pivot and a three-way partition, so runs of equal values (the zero
// scores off a support) cost one pass. −0 and +0 compare equal here, as
// in a sort and in TopK's comparisons with the result.
func selectNth(a []float64, n int) float64 {
	lo, hi := 0, len(a)
	for hi-lo > 1 {
		p := median3(a[lo], a[lo+(hi-lo)/2], a[hi-1])
		// [lo, lt) < p, [lt, i) equal to p, (gt, hi) > p.
		lt, i, gt := lo, lo, hi-1
		for i <= gt {
			switch v := a[i]; {
			case v < p:
				a[lt], a[i] = v, a[lt]
				lt++
				i++
			case v > p:
				a[gt], a[i] = v, a[gt]
				gt--
			default:
				i++
			}
		}
		switch {
		case n < lt:
			hi = lt
		case n > gt:
			lo = gt + 1
		default:
			return p
		}
	}
	return a[lo]
}

// median3 returns the median of three values.
func median3(x, y, z float64) float64 {
	if x > y {
		x, y = y, x
	}
	if y > z {
		y = z
	}
	return max(x, y)
}
