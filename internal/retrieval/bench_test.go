package retrieval

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"duo/internal/telemetry"
	"duo/internal/tensor"
)

// benchRows synthesizes n dense dim-d feature rows plus a query feature.
func benchRows(n, dim int) (ids []string, labels []int, rows []*tensor.Tensor, q []float64) {
	rng := rand.New(rand.NewSource(11))
	ids = make([]string, n)
	labels = make([]int, n)
	rows = make([]*tensor.Tensor, n)
	for i := range rows {
		ids[i], labels[i], rows[i] = fmt.Sprintf("v%05d", i), i%10, tensor.RandNormal(rng, 0, 1, dim)
	}
	return ids, labels, rows, tensor.RandNormal(rng, 0, 1, dim).Data()
}

// benchIndex builds a synthetic exact index of n dense dim-d rows plus a
// query feature, isolating the gallery scan (the Retrieve hot loop) from
// feature extraction.
func benchIndex(n, dim int) (*Shard, []float64) {
	ids, labels, rows, q := benchRows(n, dim)
	return NewShardFromFeatures(ids, labels, rows), q
}

// BenchmarkRetrieveParallel measures the sharded top-m scan (with pooled
// scratch, as Engine.Retrieve runs it) at several worker counts on a
// 1k-video gallery.
func BenchmarkRetrieveParallel(b *testing.B) {
	s, q := benchIndex(1000, 64)
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = s.nearest(q, 10, w)
			}
		})
	}
}

// BenchmarkShardNearest measures the per-node scan of the distributed path
// (single-threaded by design, pooled scratch): a 1k-row gallery, one node
// of the bench fleet (20k rows over 3 nodes, 32 dims), and the PQ code
// scan plus re-rank over that fleet shard.
func BenchmarkShardNearest(b *testing.B) {
	for _, c := range []struct{ n, dim int }{{1000, 64}, {6667, 32}} {
		b.Run(fmt.Sprintf("exact/n=%d/dim=%d", c.n, c.dim), func(b *testing.B) {
			s, feat := benchIndex(c.n, c.dim)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = s.Nearest(feat, 10)
			}
		})
	}
	b.Run("pq/n=6667/dim=32", func(b *testing.B) {
		ids, labels, rows, feat := benchRows(6667, 32)
		ix, err := NewPQIndex(ids, labels, rows, PQConfig{Subspaces: 8, Centroids: 64, Seed: 7, RerankDepth: 64})
		if err != nil {
			b.Fatal(err)
		}
		defer ix.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = ix.Nearest(feat, 10)
		}
	})
}

// allocsStable measures allocs/op with the garbage collector paused. The
// scan path draws scratch from a sync.Pool, and a GC landing inside the
// measurement window empties the pool (charging spurious refill
// allocations) while the background mark phase allocates on its own
// account — both inflate AllocsPerRun nondeterministically, especially
// under -race. With GC off and the pool pre-warmed the count is exact.
func allocsStable(f func()) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC() // start from a collected heap so disabling GC is safe
	f()          // warm the scratch pool
	return testing.AllocsPerRun(200, f)
}

// TestDisabledTelemetryAddsNoAllocations is the zero-overhead contract on
// the Retrieve hot path: with no registry wired, the instrumented scan
// must allocate exactly as much as the raw scan — nothing for telemetry.
func TestDisabledTelemetryAddsNoAllocations(t *testing.T) {
	if raceEnabled {
		// Under the race detector sync.Pool randomly drops Puts, so the
		// pooled scratch misses ~25% of the time and the truncated
		// allocs/op flips between 6 and 7 on both paths — the exact
		// comparison is meaningless. The non-race CI step pins it.
		t.Skip("race instrumentation perturbs exact allocation counts")
	}
	s, q := benchIndex(256, 32)
	baseline := allocsStable(func() { _ = s.nearest(q, 10, 1) })
	instrumented := allocsStable(func() { _ = s.tel.scan(s, q, 10, 1) })
	if instrumented != baseline {
		t.Errorf("disabled telemetry changed allocations: scan %.1f, instrumented %.1f allocs/op",
			baseline, instrumented)
	}
}

// TestEnabledTelemetryAddsNoAllocations: even with a live registry the
// per-query records are allocation-free (instruments resolve at wiring).
func TestEnabledTelemetryAddsNoAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs exact allocation counts")
	}
	s, q := benchIndex(256, 32)
	baseline := allocsStable(func() { _ = s.nearest(q, 10, 1) })
	s.SetTelemetry(telemetry.New())
	instrumented := allocsStable(func() { _ = s.tel.scan(s, q, 10, 1) })
	if instrumented != baseline {
		t.Errorf("enabled telemetry allocated on the hot path: scan %.1f, instrumented %.1f allocs/op",
			baseline, instrumented)
	}
}

// BenchmarkRetrieveTelemetry quantifies the telemetry overhead on the
// engine scan, disabled (nil registry — must be free) and enabled.
func BenchmarkRetrieveTelemetry(b *testing.B) {
	for _, enabled := range []bool{false, true} {
		name := "disabled"
		if enabled {
			name = "enabled"
		}
		b.Run(name, func(b *testing.B) {
			s, q := benchIndex(1000, 64)
			if enabled {
				s.SetTelemetry(telemetry.New())
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = s.tel.scan(s, q, 10, 1)
			}
		})
	}
}
