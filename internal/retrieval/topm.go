package retrieval

import (
	"slices"
	"strings"

	"duo/internal/parallel"
)

// This file is the sharded top-m selection kernel behind every index tier:
// the exact scan of a gallery (gallery.topM) and the PQ code scan
// (PQIndex.adcSelect) both run scanTopMIdx with their own row-scoring
// closure. The rows are split into contiguous shards (parallel.Bounds),
// each shard keeps its own bounded top-m heap, and the per-shard winners
// are merged under the global (dist, ID) order. Every per-row distance is
// computed independently and the merge order is a total order over unique
// IDs, so the output is bitwise-identical to a sequential sort-everything
// scan at every worker count — the determinism contract of DESIGN.md §9.
//
// Nothing on the kernel's per-row path may allocate.
// The single-worker path is fully sequential (no parallel.ForN closure,
// whose escape to goroutines costs one heap allocation per scan) and
// sorting uses slices.SortFunc (allocation-free, unlike sort.Slice which
// boxes both the slice and the comparator).

// resultLess is the service-wide result order: ascending distance with ID
// tie-breaking. It is a strict total order whenever gallery IDs are unique,
// which is what makes the sharded scan reproduce `nearest` exactly.
func resultLess(a, b Result) bool {
	if a.Dist != b.Dist { //duolint:allow floateq comparator tie-break: exact equality IS the tie, and both operands are the same unrounded computation
		return a.Dist < b.Dist
	}
	return a.ID < b.ID
}

// cmpResult is resultLess as a three-way comparison for slices.SortFunc.
// Sorting under it is bitwise-identical to sorting under resultLess: the
// order is strictly total over unique IDs, so the sorted sequence is
// unique regardless of the algorithm.
func cmpResult(a, b Result) int {
	if a.Dist != b.Dist { //duolint:allow floateq comparator tie-break: exact equality IS the tie, and both operands are the same unrounded computation
		if a.Dist < b.Dist {
			return -1
		}
		return 1
	}
	return strings.Compare(a.ID, b.ID)
}

// scored is a candidate row with its distance — exact for a gallery scan,
// approximate for the PQ code scan that selects before exact re-ranking.
// Ordering is (dist, ID of the row), the same strict total order
// resultLess imposes on Results, so the selected set is identical at every
// worker count.
type scored struct {
	row  int
	dist float64
}

// rowOrder is that order for rows of the gallery whose IDs it holds.
type rowOrder []string

func (ids rowOrder) cmp(a, b scored) int {
	if a.dist != b.dist { //duolint:allow floateq comparator tie-break: exact equality IS the tie, and both operands are the same unrounded computation
		if a.dist < b.dist {
			return -1
		}
		return 1
	}
	return strings.Compare(ids[a.row], ids[b.row])
}

func (ids rowOrder) less(a, b scored) bool { return ids.cmp(a, b) < 0 }

// pushBounded inserts r into the bounded max-heap h (worst kept entry at
// the root), retaining the m smallest entries under the order.
func pushBounded(h []scored, r scored, m int, ids rowOrder) []scored {
	if len(h) < m {
		h = append(h, r)
		i := len(h) - 1
		for i > 0 {
			p := (i - 1) / 2
			if !ids.less(h[p], h[i]) {
				break
			}
			h[p], h[i] = h[i], h[p]
			i = p
		}
		return h
	}
	if !ids.less(r, h[0]) {
		return h
	}
	h[0] = r
	i := 0
	for {
		l, rr := 2*i+1, 2*i+2
		big := i
		if l < len(h) && ids.less(h[big], h[l]) {
			big = l
		}
		if rr < len(h) && ids.less(h[big], h[rr]) {
			big = rr
		}
		if big == i {
			return h
		}
		h[i], h[big] = h[big], h[i]
		i = big
	}
}

// idxScratch is the reusable workspace of a sharded scan: one bounded heap
// per shard plus a merge buffer. Owners keep it (inside their per-query
// scratch) in a sync.Pool so a steady-state query never allocates an
// O(gallery) temporary.
type idxScratch struct {
	heaps  [][]scored
	merged []scored
}

// shards returns w heap slots, each empty with capacity ≥ m, reusing the
// scratch's backing arrays.
func (sc *idxScratch) shards(w, m int) [][]scored {
	if cap(sc.heaps) < w {
		sc.heaps = make([][]scored, w)
	}
	sc.heaps = sc.heaps[:w]
	for s := range sc.heaps {
		if cap(sc.heaps[s]) < m {
			sc.heaps[s] = make([]scored, 0, m)
		} else {
			sc.heaps[s] = sc.heaps[s][:0]
		}
	}
	return sc.heaps
}

// scanTopMIdx returns the m rows of [0, n) with the smallest dist(i) in
// (dist, ids[row]) order, scanning with w contiguous shards (m and w are
// clamped to [0, n] and [1, n]). It is bitwise-deterministic for any w ≥ 1
// given unique ids: every dist(i) is computed independently and the merge
// order is a strict total order.
// The returned slice aliases sc.merged and is valid until the next scan
// with the same scratch.
//
// dist escapes into worker goroutines on the multi-shard path, so a
// closure passed here may be heap-allocated by the caller; allocation-free
// callers keep a reusable closure alongside their scratch (see
// galleryScratch, pqScratch).
func scanTopMIdx(n, m, w int, dist func(i int) float64, ids rowOrder, sc *idxScratch) []scored {
	if m > n {
		m = n
	}
	if m <= 0 {
		return nil
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	heaps := sc.shards(w, m)
	if w == 1 {
		h := heaps[0]
		for i := 0; i < n; i++ {
			h = pushBounded(h, scored{row: i, dist: dist(i)}, m, ids)
		}
		heaps[0] = h
	} else {
		parallel.ForN(w, n, func(shard, start, end int) {
			h := heaps[shard]
			for i := start; i < end; i++ {
				h = pushBounded(h, scored{row: i, dist: dist(i)}, m, ids)
			}
			heaps[shard] = h
		})
	}
	merged := sc.merged[:0]
	for _, h := range heaps {
		merged = append(merged, h...)
	}
	slices.SortFunc(merged, ids.cmp)
	sc.merged = merged
	return merged[:m]
}
