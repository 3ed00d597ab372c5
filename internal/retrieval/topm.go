package retrieval

import (
	"math"
	"slices"
	"strings"

	"duo/internal/parallel"
)

// This file is the sharded top-m selection kernel behind every index tier:
// the exact scan of a gallery (gallery.topM) and the PQ code scan
// (PQIndex.adcSelect) both run scanTopMIdx with their own block scorer,
// which fills the keys of a block of rows per call, four rows per pass
// with one accumulator and one term order per row. The rows are split
// into contiguous shards (parallel.Bounds, at least scanMinShard rows
// each), each shard keeps its own bounded top-m heap, and the per-shard
// winners are merged under the global (dist, ID) order. Every per-row key
// is computed independently and the merge order is a total order over
// unique IDs, so the output is bitwise-identical to a sequential
// sort-everything scan at every worker count — the determinism contract
// of DESIGN.md §9.
//
// Once a shard's heap is full, a row whose key is provably worse than the
// heap root is dropped before its square root or its heap push (see
// skipBound); a row that ties the root always reaches pushBounded, where
// the ID decides.
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
	if a.Dist != b.Dist { // exact equality is the tie: both operands are the same unrounded computation
		return a.Dist < b.Dist
	}
	return a.ID < b.ID
}

// cmpResult is resultLess as a three-way comparison for slices.SortFunc.
// Sorting under it is bitwise-identical to sorting under resultLess: the
// order is strictly total over unique IDs, so the sorted sequence is
// unique regardless of the algorithm.
func cmpResult(a, b Result) int {
	if a.Dist != b.Dist { // exact equality is the tie: both operands are the same unrounded computation
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
	if a.dist != b.dist { // exact equality is the tie: both operands are the same unrounded computation
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

// scanMinShard is the minimum rows per scan shard: below it a shard's
// per-row work (a 32-to-64-dim distance, or nsub table lookups) is too
// cheap to amortize goroutine fan-out, so a small gallery scans on the
// calling goroutine whatever the worker count.
const scanMinShard = 1024

// scanBlock is the rows a block scorer fills per call: few enough that the
// keys stay in L1, enough that the call and the block loop are noise.
const scanBlock = 256

// blockScorer fills keys[j] with the key of row lo+j for every j <
// len(keys). Each row's key must be a pure function of the row (its own
// accumulator, its own term order), so a block's bits do not depend on
// where the block starts. Implementations score four rows per pass.
type blockScorer interface {
	scoreBlock(keys []float64, lo int)
}

// skipBound returns the key above which a row provably ranks after a full
// heap whose root is at distance root. For a PQ scan the key is the order
// key, so the bound is root itself. An exact scan keys rows by the squared
// distance s and orders them by √s, and sqrt is monotone but not injective
// (DESIGN.md §9), so s > root² does not give √s > root. While root² is a
// normal float64, both roundings (root·root and the product below) are
// within a relative 2⁻⁵³, so s > root²·(1+1e-9) puts the exact √s above
// root by a relative 4e-10, far past the 2⁻⁵³ the rounded sqrt can lose.
// Outside that range (root 0, subnormal, +Inf or NaN) the bound is +Inf
// and the caller compares the rooted distance itself. NaN compares
// greater than nothing, so a NaN key or root never skips a row.
func skipBound(root float64, rooted bool) float64 {
	if !rooted {
		return root
	}
	if b := root * root; b >= 0x1p-1022 && b <= math.MaxFloat64 {
		return b * (1 + 1e-9)
	}
	return math.Inf(1)
}

// scanShard pushes rows [start, end) into the bounded heap h, scoring
// them a block at a time into keys (len(keys) ≥ 1). With rooted the keys
// are squared distances and a kept row's dist is math.Sqrt(key). Once the
// heap holds m entries a row is dropped when its key is past skipBound or
// its dist is strictly greater than the root's: pushBounded would drop
// either, so the heap ends up exactly as if every row were pushed.
func scanShard(h []scored, start, end, m int, keys []float64, s blockScorer, rooted bool, ids rowOrder) []scored {
	// +Inf until the heap fills: nothing compares greater, so no row is
	// skipped.
	root, bound := math.Inf(1), math.Inf(1)
	for lo := start; lo < end; lo += len(keys) {
		blk := keys[:min(len(keys), end-lo)]
		s.scoreBlock(blk, lo)
		for j, key := range blk {
			if key > bound {
				continue
			}
			d := key
			if rooted {
				d = math.Sqrt(key)
			}
			if d > root {
				continue
			}
			h = pushBounded(h, scored{row: lo + j, dist: d}, m, ids)
			if len(h) == m {
				root = h[0].dist
				bound = skipBound(root, rooted)
			}
		}
	}
	return h
}

// idxScratch is the reusable workspace of a sharded scan: one bounded heap
// and one key block per shard plus a merge buffer. Owners keep it (inside
// their per-query scratch) in a sync.Pool so a steady-state query never
// allocates an O(gallery) temporary.
type idxScratch struct {
	heaps  [][]scored
	keys   []float64
	merged []scored
}

// shards returns w heap slots, each empty with capacity ≥ m, and w
// disjoint key blocks of scanBlock entries, reusing the scratch's backing
// arrays.
func (sc *idxScratch) shards(w, m int) ([][]scored, []float64) {
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
	if len(sc.keys) < w*scanBlock {
		sc.keys = make([]float64, w*scanBlock)
	}
	return sc.heaps, sc.keys
}

// scanTopMIdx returns the m rows of [0, n) with the smallest keys in
// (dist, ids[row]) order, where dist is the key, or its square root when
// rooted. It scans with up to w contiguous shards of at least
// scanMinShard rows (m is clamped to [0, n], and w to [1, n/scanMinShard]
// with at least one shard). It is
// bitwise-deterministic for any w ≥ 1 given unique ids: every key is
// computed independently and the merge order is a strict total order.
// The returned slice aliases sc.merged and is valid until the next scan
// with the same scratch.
//
// s escapes into worker goroutines on the multi-shard path; callers pass
// a pointer to their pooled scratch, so the interface value itself never
// allocates.
func scanTopMIdx(n, m, w int, s blockScorer, rooted bool, ids rowOrder, sc *idxScratch) []scored {
	if m > n {
		m = n
	}
	if m <= 0 {
		return nil
	}
	w = parallel.CapWorkers(w, n, scanMinShard)
	heaps, keys := sc.shards(w, m)
	if w == 1 {
		heaps[0] = scanShard(heaps[0], 0, n, m, keys[:scanBlock], s, rooted, ids)
	} else {
		parallel.ForN(w, n, func(shard, start, end int) {
			heaps[shard] = scanShard(heaps[shard], start, end, m, keys[shard*scanBlock:(shard+1)*scanBlock], s, rooted, ids)
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
