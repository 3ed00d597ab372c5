package retrieval

import (
	"testing"
)

// This file pins the zero-allocation contracts of the scan kernels: with a
// warm scratch and a warm destination buffer a steady-state query performs
// zero heap allocations, and these tests hold that promise at exactly
// 0 allocs/op so a regression fails CI instead of showing up as a
// benchmark drift.

// TestScanTopMIntoZeroAllocs pins gallery.topM at zero steady-state
// allocations: warm dst, warm scratch, single worker (the sequential fast
// path — the parallel path necessarily allocates its fan-out closure).
func TestScanTopMIntoZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs exact allocation counts")
	}
	s, q := benchIndex(256, 32)
	sc := new(galleryScratch)
	dst := make([]Result, 0, 10)
	got := allocsStable(func() {
		dst = s.g.topM(dst, q, 10, 1, sc)
	})
	if got != 0 {
		t.Errorf("topM with warm dst+scratch: %.1f allocs/op, want 0", got)
	}
	if len(dst) != 10 {
		t.Fatalf("topM returned %d results, want 10", len(dst))
	}
}

// TestPQAdcSelectZeroAllocs pins the PQ query core at zero steady-state
// allocations: a warm pqScratch (lookup table, candidate heaps, re-rank
// buffer, reusable ADC closure) makes adcSelect allocation-free with
// telemetry disabled, which is the documented contract on the method.
func TestPQAdcSelectZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs exact allocation counts")
	}
	ids, labels, rows, feat := benchRows(256, 32)
	ix, err := NewPQIndex(ids, labels, rows, PQConfig{
		Subspaces:   8,
		Centroids:   16,
		Seed:        7,
		RerankDepth: 32,
	})
	if err != nil {
		t.Fatalf("NewPQIndex: %v", err)
	}
	defer ix.Close()
	sc := new(pqScratch)
	got := allocsStable(func() {
		_ = ix.adcSelect(feat, 10, 1, sc)
	})
	if got != 0 {
		t.Errorf("adcSelect with warm scratch: %.1f allocs/op, want 0", got)
	}
}
