package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// This file implements the deterministic snapshot merge underneath the
// fleet observability plane: the coordinator pulls one Snapshot per data
// node and folds them into a cluster-wide view with Merge/MergeAll.
//
// Merge is associative and commutative by construction, so a fleet rollup
// does not depend on which node answered first:
//
//   - counters sum;
//   - gauges sum, except names matched by gaugeMergesByMax (breaker/state
//     mirrors, config echoes, high-water marks), which take the maximum —
//     max is order-free, unlike last-write, which is why the rule is
//     sum-or-max rather than the last-write some systems use;
//   - histograms merge bucket-wise, which requires identical bucket
//     bounds; a layout mismatch is a typed *HistogramMergeError. Counts,
//     min, and max merge exactly; Sum is a float accumulation, so it is
//     bitwise order-independent only for integer-valued observations
//     (which every *_ns latency histogram records) and order-independent
//     up to summation rounding otherwise. Quantiles are recomputed from
//     the merged buckets by the same estimator as live histograms;
//   - rings are dropped: a ring is a node-local recent-sample window
//     (flight-recorder material) and interleaving two nodes' windows has
//     no meaningful order. Per-node rings stay available in the per-node
//     snapshots a fleet view retains alongside the merge.
//
// Every key iteration below either aggregates into a map (order-free) or
// walks keys in sorted order, so the merge — including which histogram a
// mismatch error names first — is deterministic (TestMergeBoundsMismatchTypedError).

// HistogramMergeError reports a bucket-layout mismatch between two
// snapshots' histograms of the same name. Merging such histograms
// bucket-wise would silently misclassify observations, so the merge
// refuses instead.
type HistogramMergeError struct {
	// Name is the histogram's registry name.
	Name string
	// A and B are the two incompatible bucket bound layouts.
	A, B []float64
}

func (e *HistogramMergeError) Error() string {
	return fmt.Sprintf("telemetry: histogram %q bucket bounds differ between snapshots (%d vs %d bounds): cannot merge bucket-wise", e.Name, len(e.A), len(e.B))
}

// gaugeMergesByMax reports whether the named gauge merges by maximum
// instead of sum. State mirrors (".state"/"_state" suffixes, e.g. breaker
// automata), configuration echoes (".config." segments — equal on every
// node, and max of equals is the value itself), and high-water marks are
// max-merged; everything else (queue depths, in-flight counts, heap
// bytes, goroutines) is fleet-additive and sums.
func gaugeMergesByMax(name string) bool {
	return strings.HasSuffix(name, ".state") ||
		strings.HasSuffix(name, "_state") ||
		strings.HasSuffix(name, "_highwater") ||
		strings.Contains(name, ".config.")
}

// Merge returns a new snapshot combining s and o under the rules above.
// Neither operand is mutated; the result's maps are always non-nil. The
// only error is a *HistogramMergeError for incompatible bucket layouts.
func (s *Snapshot) Merge(o *Snapshot) (*Snapshot, error) {
	out := &Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramStats{},
		Rings:      map[string][]float64{},
	}
	for _, src := range []*Snapshot{s, o} {
		if src == nil {
			continue
		}
		for k, v := range src.Counters {
			out.Counters[k] += v
		}
		for k, v := range src.Gauges {
			prev, seen := out.Gauges[k]
			switch {
			case !seen:
				out.Gauges[k] = v
			case gaugeMergesByMax(k):
				if v > prev {
					out.Gauges[k] = v
				}
			default:
				out.Gauges[k] = prev + v
			}
		}
	}
	// Histograms walk sorted names so the first mismatch reported is the
	// same one on every run.
	names := map[string]bool{}
	for _, src := range []*Snapshot{s, o} {
		if src == nil {
			continue
		}
		for k := range src.Histograms {
			names[k] = true
		}
	}
	for _, k := range sortedKeys(names) {
		var a, b HistogramStats
		if s != nil {
			a = s.Histograms[k]
		}
		if o != nil {
			b = o.Histograms[k]
		}
		m, err := mergeHistogramStats(k, a, b)
		if err != nil {
			return nil, err
		}
		out.Histograms[k] = m
	}
	return out, nil
}

// MergeAll folds snapshots left to right with Merge. Zero inputs yield an
// empty snapshot; nil entries merge as empty. Since Merge is associative
// and commutative (up to float summation rounding in histogram sums), the
// fold order cannot change the result beyond that rounding — callers still
// pass a deterministic order (node index) so even the rounding is pinned.
func MergeAll(snaps ...*Snapshot) (*Snapshot, error) {
	out := &Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramStats{},
		Rings:      map[string][]float64{},
	}
	var err error
	for _, s := range snaps {
		out, err = out.Merge(s)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// mergeHistogramStats merges two bucket-carrying stats of one histogram.
// An empty side (Count 0 — the zero HistogramStats a fresh or absent
// histogram snapshots to) is the merge identity. Bounds must otherwise be
// bitwise identical: bounds are copied configuration constants, so exact
// Float64bits equality is the contract, not a rounding hazard.
func mergeHistogramStats(name string, a, b HistogramStats) (HistogramStats, error) {
	if a.Count == 0 {
		return cloneHistogramStats(b), nil
	}
	if b.Count == 0 {
		return cloneHistogramStats(a), nil
	}
	if len(a.Bounds) != len(b.Bounds) || len(a.Buckets) != len(b.Buckets) {
		return HistogramStats{}, &HistogramMergeError{Name: name, A: a.Bounds, B: b.Bounds}
	}
	for i := range a.Bounds {
		if math.Float64bits(a.Bounds[i]) != math.Float64bits(b.Bounds[i]) {
			return HistogramStats{}, &HistogramMergeError{Name: name, A: a.Bounds, B: b.Bounds}
		}
	}
	buckets := make([]int64, len(a.Buckets))
	for i := range buckets {
		buckets[i] = a.Buckets[i] + b.Buckets[i]
	}
	min, max := a.Min, a.Max
	if b.Min < min {
		min = b.Min
	}
	if b.Max > max {
		max = b.Max
	}
	return statsFromBuckets(append([]float64(nil), a.Bounds...), buckets, a.Sum+b.Sum, min, max), nil
}

// cloneHistogramStats deep-copies the slice fields so a merged snapshot
// never aliases an operand's buckets.
func cloneHistogramStats(h HistogramStats) HistogramStats {
	h.Bounds = append([]float64(nil), h.Bounds...)
	h.Buckets = append([]int64(nil), h.Buckets...)
	return h
}

// sortedKeys returns the map's keys in ascending order — the shared
// deterministic-iteration helper for every export and merge path.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
