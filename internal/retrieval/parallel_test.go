package retrieval

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"duo/internal/parallel"
	"duo/internal/tensor"
	"duo/internal/video"
)

// syntheticIndex builds an index of n entries with unique IDs and 1-D
// features drawn from a small discrete set, so distance ties are common
// and the (Dist, ID) tie-break rule is genuinely exercised.
func syntheticIndex(rng *rand.Rand, n int) (ids []string, labels []int, feats []*tensor.Tensor) {
	for i := 0; i < n; i++ {
		ids = append(ids, fmt.Sprintf("v%04d", i))
		labels = append(labels, rng.Intn(3))
		feats = append(feats, tensor.From([]float64{float64(rng.Intn(5))}, 1))
	}
	return ids, labels, feats
}

// TestScanTopMMatchesSequential is the core equivalence test: the sharded
// heap scan must be bitwise-identical to the sequential sort-everything
// path at every worker count, including shard layouts that don't divide
// evenly, galleries smaller than the worker count, and m out of range
// (math.MaxInt pins the clamp-before-allocate: an absurd m costs nothing).
func TestScanTopMMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	query := tensor.From([]float64{0.5}, 1)
	for _, n := range []int{0, 1, 2, 3, 7, 10, 33, 2*scanMinShard + 3} {
		ids, labels, feats := syntheticIndex(rng, n)
		for _, m := range []int{-1, 0, 1, 2, n / 2, n, n + 5, math.MaxInt} {
			want := nearest(query, ids, labels, feats, m)
			for _, w := range []int{1, 2, 7} {
				got := scanRows(query, ids, labels, feats, m, w, nil)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("n=%d m=%d workers=%d: sharded scan diverged\n got %v\nwant %v", n, m, w, got, want)
				}
			}
		}
	}
}

// TestEngineRetrieveWorkerCountInvariant runs the full engine path (embed +
// scan) at worker counts 1, 2, and 7 and requires bitwise-identical lists.
func TestEngineRetrieveWorkerCountInvariant(t *testing.T) {
	eng, c, _ := testSystem(t)
	q := c.Test[0]
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	want := eng.Retrieve(q, 7)
	for _, w := range []int{2, 7} {
		parallel.SetWorkers(w)
		got := eng.Retrieve(q, 7)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: Retrieve diverged from sequential:\n got %v\nwant %v", w, got, want)
		}
	}
}

// TestGalleryOfOne covers the degenerate single-entry gallery across worker
// counts.
func TestGalleryOfOne(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ids, labels, feats := syntheticIndex(rng, 1)
	query := tensor.From([]float64{2}, 1)
	want := nearest(query, ids, labels, feats, 5)
	for _, w := range []int{1, 2, 7} {
		got := scanRows(query, ids, labels, feats, 5, w, nil)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d diverged on gallery of 1", w)
		}
	}
}

// TestEngineRetrieveBatchMatchesSequentialRetrieve checks RetrieveBatch
// answers and billing: out[i] == Retrieve(vs[i], m) bitwise and the batch
// bills one query per video.
func TestEngineRetrieveBatchMatchesSequentialRetrieve(t *testing.T) {
	eng, c, _ := testSystem(t)
	vs := c.Test
	for _, w := range []int{1, 2, 7} {
		prev := parallel.SetWorkers(w)
		eng.ResetQueryCount()
		batch := eng.RetrieveBatch(vs, 5)
		if got := eng.QueryCount(); got != int64(len(vs)) {
			t.Errorf("workers=%d: batch billed %d queries, want %d", w, got, len(vs))
		}
		for i, v := range vs {
			want := eng.Retrieve(v, 5)
			if !reflect.DeepEqual(batch[i], want) {
				t.Fatalf("workers=%d: batch[%d] != Retrieve", w, i)
			}
		}
		parallel.SetWorkers(prev)
	}
}

// TestClusterRetrieveBatchMatchesRetrieve mirrors the engine batch test on
// the distributed coordinator.
func TestClusterRetrieveBatchMatchesRetrieve(t *testing.T) {
	_, c, m := testSystem(t)
	cl := NewLocalCluster(m, c.Train, 3)
	defer cl.Close()
	vs := c.Test[:4]
	before := cl.QueryCount()
	batch := cl.RetrieveBatch(vs, 5)
	if got := cl.QueryCount() - before; got != int64(len(vs)) {
		t.Errorf("cluster batch billed %d queries, want %d", got, len(vs))
	}
	for i, v := range vs {
		want := cl.Retrieve(v, 5)
		if !reflect.DeepEqual(batch[i], want) {
			t.Fatalf("cluster batch[%d] != Retrieve", i)
		}
	}
}

// TestEngineConcurrentRetrieveExactQueryCount hammers Retrieve and
// RetrieveBatch from concurrent goroutines (run under -race in CI) and
// checks that QueryCount never loses an increment and answers never
// diverge.
func TestEngineConcurrentRetrieveExactQueryCount(t *testing.T) {
	eng, c, _ := testSystem(t)
	q := c.Test[0]
	want := eng.Retrieve(q, 5)
	eng.ResetQueryCount()

	const goroutines = 8
	const perG = 5
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < perG; k++ {
				var got []Result
				if g%2 == 0 {
					got = eng.Retrieve(q, 5)
				} else {
					got = eng.RetrieveBatch([]*video.Video{q}, 5)[0]
				}
				if !reflect.DeepEqual(got, want) {
					errs <- fmt.Errorf("goroutine %d: concurrent answer diverged", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := eng.QueryCount(); got != goroutines*perG {
		t.Fatalf("QueryCount=%d after %d concurrent queries", got, goroutines*perG)
	}
}

// TestClusterConcurrentRetrieveBatch hammers the coordinator concurrently;
// every query must be billed and every answer must match the quiescent one.
func TestClusterConcurrentRetrieveBatch(t *testing.T) {
	_, c, m := testSystem(t)
	cl := NewLocalCluster(m, c.Train, 3)
	defer cl.Close()
	q := c.Test[0]
	want := cl.Retrieve(q, 5)
	base := cl.QueryCount()

	const goroutines = 6
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got := cl.RetrieveBatch([]*video.Video{q, q}, 5)
			for _, rs := range got {
				if !reflect.DeepEqual(rs, want) {
					errs <- fmt.Errorf("goroutine %d: cluster answer diverged", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := cl.QueryCount() - base; got != goroutines*2 {
		t.Fatalf("cluster QueryCount delta=%d, want %d", got, goroutines*2)
	}
}

// TestEvaluateBatchedMatchesSequential pins Evaluate's batched fan-out to
// the plain per-query loop.
func TestEvaluateBatchedMatchesSequential(t *testing.T) {
	eng, c, _ := testSystem(t)
	batched := Evaluate(eng, c.Test, 5)
	sequential := Evaluate(retrieverOnly{eng}, c.Test, 5)
	if batched != sequential {
		t.Fatalf("batched Evaluate %+v != sequential %+v", batched, sequential)
	}
}

// retrieverOnly hides an engine's batching so callers take the sequential
// path.
type retrieverOnly struct{ r Retriever }

func (r retrieverOnly) Retrieve(v *video.Video, m int) []Result { return r.r.Retrieve(v, m) }
