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
// Rather than stable-sorting every index, TopK reads the k-th largest value
// off one value sort, keeps everything above it plus the lowest-index
// entries equal to it, and orders only those k indices. Inputs holding a
// NaN, which has no place in a total order, take the ArgsortDesc path.
func TopK(vals []float64, k int) []int {
	k = max(0, min(k, len(vals)))
	if k == 0 || slices.ContainsFunc(vals, math.IsNaN) {
		return ArgsortDesc(vals)[:k]
	}
	sorted := slices.Clone(vals)
	slices.Sort(sorted)
	kth := sorted[len(vals)-k]
	idx := make([]int, 0, k)
	for i, v := range vals {
		if v > kth {
			idx = append(idx, i)
		}
	}
	for i, v := range vals {
		if len(idx) < k && v == kth { //duolint:allow floateq selection tie: kth is one of vals, and exact equality IS the tie the order breaks by index
			idx = append(idx, i)
		}
	}
	slices.SortFunc(idx, func(a, b int) int { return cmp.Or(cmp.Compare(vals[b], vals[a]), a-b) })
	return idx
}
