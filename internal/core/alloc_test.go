package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"duo/internal/attack"
	"duo/internal/retrieval"
	"duo/internal/tensor"
	"duo/internal/video"
)

// This file pins the steady-state allocation behaviour of the SparseQuery
// harness walk under every registered strategy. The per-step path crosses
// into retrieval and metrics; this test holds the end-to-end claim — after
// warm-up, a walk step allocates nothing — by showing the malloc count of
// a round is independent of the query budget.

// fixedVictim answers every query with the same pre-built list, so a
// victim round-trip performs zero heap allocations and the harness's own
// per-step behaviour is the only thing the malloc counter can see.
type fixedVictim struct{ rs []retrieval.Result }

func (f *fixedVictim) Retrieve(*video.Video, int) []retrieval.Result { return f.rs }

// allocTestMasks builds a full pixel/frame mask with a 6-element θ support
// over a 2×1×4×4 video.
func allocTestMasks(v *video.Video) *Masks {
	shape := v.Data.Shape()
	pixel := tensor.New(shape...)
	frame := tensor.New(shape...)
	theta := tensor.New(shape...)
	pd, fd := pixel.Data(), frame.Data()
	for i := range pd {
		pd[i], fd[i] = 1, 1
	}
	td := theta.Data()
	for _, idx := range []int{0, 3, 5, 9, 17, 26} {
		td[idx] = 4
	}
	return &Masks{Pixel: pixel, Frame: frame, Theta: theta}
}

// sparseQueryMallocs runs one SparseQuery round under strategy against the
// fixed victim (trace and telemetry disabled) and returns the mallocs it
// performed. The caller is responsible for disabling GC around the
// measurement.
func sparseQueryMallocs(t *testing.T, strategy string, budget int) uint64 {
	t.Helper()
	v := video.New(2, 1, 4, 4)
	vt := video.New(2, 1, 4, 4)
	masks := allocTestMasks(v)
	rs := make([]retrieval.Result, 8)
	for i := range rs {
		rs[i] = retrieval.Result{ID: fmt.Sprintf("g%d", i), Label: i, Dist: float64(i)}
	}
	ctx := &attack.Context{Victim: &fixedVictim{rs: rs}, M: 8, Rng: rand.New(rand.NewSource(3))}
	cfg := DefaultQueryConfig()
	cfg.MaxQueries = budget
	cfg.Tau = 8
	cfg.Strategy = strategy

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	res, err := SparseQuery(ctx, v, vt, masks, cfg)
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatalf("SparseQuery(%s, budget=%d): %v", strategy, budget, err)
	}
	if res.Queries > budget {
		t.Fatalf("SparseQuery(%s) overran its budget: %d > %d", strategy, res.Queries, budget)
	}
	return m1.Mallocs - m0.Mallocs
}

// TestSparseQueryStepLoopZeroSteadyStateAllocs pins the harness step loop
// of every registered strategy at zero marginal allocations: a budget-192
// round must malloc exactly as much as a budget-64 round, because
// everything a round allocates — oracle, reference copies, candidate pool
// high-water mark, pre-sized trajectory, a strategy's population — is
// warm-up, and the 128 extra steady-state queries must be allocation-free
// (candidate recycling, permInto reuse, pooled membership maps, aliased ID
// projections, recycled genomes).
func TestSparseQueryStepLoopZeroSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs exact allocation counts")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, strategy := range OptimizerNames() {
		runtime.GC()
		_ = sparseQueryMallocs(t, strategy, 64) // warm the process-wide pools (metrics membership)
		// Each measurement starts with a GC that ages the sync.Pools, so
		// some runs re-allocate a few pooled objects (observed: the floor,
		// or the floor + 4, for either budget). Compare the floors: a
		// per-query allocation would lift every budget-192 run by ≥ 128.
		small, large := ^uint64(0), ^uint64(0)
		for attempt := 0; attempt < 10 && (attempt == 0 || large != small); attempt++ {
			small = min(small, sparseQueryMallocs(t, strategy, 64))
			large = min(large, sparseQueryMallocs(t, strategy, 192))
		}
		if large != small {
			t.Errorf("%s: steady-state walk allocates: %d mallocs at budget 64 vs %d at budget 192 (the 128 extra queries must be allocation-free)",
				strategy, small, large)
		}
	}
}
