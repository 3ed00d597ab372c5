package core

import (
	"math"
	"strings"
	"sync"
	"testing"

	"duo/internal/parallel"
	"duo/internal/retrieval"
	"duo/internal/telemetry"
	"duo/internal/trace"
	"duo/internal/video"
)

// The optimizer contract battery: every registered BlackBoxOptimizer —
// current and future — must satisfy the harness invariants that the rest of
// the repo (duotrace, telemetry dashboards, the query-budget accounting in
// EXPERIMENTS.md) depends on. A new strategy registered via
// RegisterOptimizer is picked up here automatically; if it can't pass this
// battery it doesn't belong in the registry.

var (
	contractMaskOnce sync.Once
	contractMask     *Masks
)

// contractMasks builds the SparseTransfer prior once; the transfer stage is
// deterministic, so every subtest sees identical masks.
func contractMasks(t *testing.T) *Masks {
	t.Helper()
	f := getFixture(t)
	contractMaskOnce.Do(func() {
		m, err := SparseTransfer(f.surr, f.origin, f.target, testTransferConfig(f.geom))
		if err != nil {
			panic(err)
		}
		contractMask = m
	})
	if contractMask == nil {
		t.Fatal("mask build failed")
	}
	return contractMask
}

// countingVictim wraps a Retriever and counts round-trips. It deliberately
// implements ONLY Retrieve, so the harness takes the plain (infallible,
// unbatched) path and every victim call maps to exactly one billed query.
type countingVictim struct {
	inner retrieval.Retriever
	calls int
}

func (c *countingVictim) Retrieve(v *video.Video, m int) []retrieval.Result {
	c.calls++
	return c.inner.Retrieve(v, m)
}

// runStrategy executes one SparseQuery round under the given strategy with
// full instrumentation and returns the result plus the instruments.
func runStrategy(t *testing.T, strategy string, seed int64) (*QueryResult, *countingVictim, *telemetry.Registry, *trace.Tracer) {
	t.Helper()
	f := getFixture(t)
	masks := contractMasks(t)
	cv := &countingVictim{inner: f.victim}
	reg := telemetry.New()
	tr := trace.New("contract-" + strategy)
	ctx := newCtx(f, seed)
	ctx.Victim = cv
	ctx.Telemetry = reg
	ctx.Trace = tr
	cfg := testQueryConfig()
	cfg.Strategy = strategy
	qr, err := SparseQuery(ctx, f.origin, f.target, masks, cfg)
	if err != nil {
		t.Fatalf("strategy %s: %v", strategy, err)
	}
	return qr, cv, reg, tr
}

// TestOptimizerContracts runs the shared battery over every registered
// strategy.
func TestOptimizerContracts(t *testing.T) {
	f := getFixture(t)
	masks := contractMasks(t)
	budget := testQueryConfig().MaxQueries
	for _, strategy := range OptimizerNames() {
		strategy := strategy
		t.Run(strategy, func(t *testing.T) {
			qr, cv, reg, tr := runStrategy(t, strategy, 11)

			// Billing: never over budget, and the billed count is exactly
			// what the victim served and what telemetry recorded.
			if qr.Queries > budget {
				t.Errorf("queries %d exceed budget %d", qr.Queries, budget)
			}
			if cv.calls != qr.Queries {
				t.Errorf("victim served %d calls, billed %d", cv.calls, qr.Queries)
			}
			if telQ := reg.Snapshot().Counters["attack.queries"]; telQ != int64(qr.Queries) {
				t.Errorf("telemetry attack.queries = %d, billed %d", telQ, qr.Queries)
			}

			// Trace attribution: the bare `queries` attribute lives only on
			// leaf retrieve spans and sums to the billed count, and the
			// sparsequery span names the strategy.
			var attributed int64
			named := false
			for _, r := range tr.Records() {
				if q, ok := r.Int("queries"); ok {
					if r.Name != "retrieve" {
						t.Errorf("span %q carries a `queries` attr; reserved for retrieve leaves", r.Name)
					}
					attributed += q
				}
				if r.Name == "sparsequery" {
					if s, ok := r.Str("strategy"); ok && s == strategy {
						named = true
					}
				}
			}
			if attributed != int64(qr.Queries) {
				t.Errorf("trace attributes %d queries, billed %d", attributed, qr.Queries)
			}
			if !named {
				t.Errorf("sparsequery span does not carry strategy=%q", strategy)
			}

			// 𝕋 trajectory: monotone non-increasing (acceptance is never
			// allowed to raise the objective, whatever the strategy).
			for i := 1; i < len(qr.Trajectory); i++ {
				if qr.Trajectory[i] > qr.Trajectory[i-1]+1e-12 {
					t.Fatalf("𝕋 increased at step %d: %g → %g", i, qr.Trajectory[i-1], qr.Trajectory[i])
				}
			}

			// Support and budget: the perturbation lives inside ℐ⊙𝓕 and
			// within ±τ of the round's base on every element.
			base := f.origin.Add(masks.Compose().Clamp(-testQueryConfig().Tau, testQueryConfig().Tau))
			pm, fm := masks.Pixel.Data(), masks.Frame.Data()
			advData, baseData := qr.Adv.Data.Data(), base.Data.Data()
			for i := range pm {
				if pm[i]*fm[i] == 0 && advData[i] != baseData[i] {
					t.Fatalf("element %d outside the mask was modified", i)
				}
			}
			if got := qr.Adv.Data.Sub(f.origin.Data).LInf(); got > testQueryConfig().Tau+1e-9 {
				t.Errorf("‖v_adv − v‖∞ = %g > τ", got)
			}
			for _, x := range advData {
				if x < video.PixelMin-1e-9 || x > video.PixelMax+1e-9 {
					t.Fatalf("pixel value %g outside [%g, %g]", x, video.PixelMin, video.PixelMax)
					break
				}
			}

			// Seed determinism: a rerun with the same seed reproduces the
			// adversarial video bitwise and the trajectory exactly.
			qr2, _, _, _ := runStrategy(t, strategy, 11)
			if !qr.Adv.Data.Equal(qr2.Adv.Data, 0) {
				t.Error("same seed produced different adversarial videos")
			}
			if len(qr.Trajectory) != len(qr2.Trajectory) {
				t.Fatalf("trajectory lengths differ: %d vs %d", len(qr.Trajectory), len(qr2.Trajectory))
			}
			for i := range qr.Trajectory {
				if math.Float64bits(qr.Trajectory[i]) != math.Float64bits(qr2.Trajectory[i]) {
					t.Fatalf("trajectory diverged at step %d", i)
				}
			}
		})
	}
}

// TestOptimizerContractsWorkerInvariance reruns every strategy at workers=4
// and requires bitwise-identical results to the workers=1 battery run: the
// strategies themselves are sequential, so parallel victim internals must
// not leak into the walk.
func TestOptimizerContractsWorkerInvariance(t *testing.T) {
	for _, strategy := range OptimizerNames() {
		strategy := strategy
		t.Run(strategy, func(t *testing.T) {
			prev := parallel.SetWorkers(1)
			qr1, _, _, _ := runStrategy(t, strategy, 23)
			parallel.SetWorkers(4)
			qr4, _, _, _ := runStrategy(t, strategy, 23)
			parallel.SetWorkers(prev)
			if !qr1.Adv.Data.Equal(qr4.Adv.Data, 0) {
				t.Error("workers=1 and workers=4 produced different adversarial videos")
			}
			if qr1.Queries != qr4.Queries {
				t.Errorf("queries differ across worker counts: %d vs %d", qr1.Queries, qr4.Queries)
			}
		})
	}
}

// TestOptimizerUnknownStrategy pins the error path: an unregistered name is
// rejected up front with the known strategies listed, sorted. Five more
// names are registered out of order for the test, so a list that followed
// the registry map's walk would not come out sorted.
func TestOptimizerUnknownStrategy(t *testing.T) {
	extra := []string{"zeta", "alpha", "mu", "omega", "beta"}
	for _, name := range extra {
		RegisterOptimizer(name, func() BlackBoxOptimizer { return nil })
	}
	t.Cleanup(func() {
		for _, name := range extra {
			delete(optimizerRegistry, name)
		}
	})
	f := getFixture(t)
	masks := contractMasks(t)
	cfg := testQueryConfig()
	cfg.Strategy = "does-not-exist"
	_, err := SparseQuery(newCtx(f, 9), f.origin, f.target, masks, cfg)
	if err == nil {
		t.Fatal("unknown strategy accepted")
	}
	const want = "(have [alpha beta evolutionary mu omega sparsequery sparsers zeta])"
	if !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not list the sorted strategies %s", err, want)
	}
}
