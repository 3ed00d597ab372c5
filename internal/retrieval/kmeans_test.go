package retrieval

import (
	"math"
	"math/rand"
	"testing"

	"duo/internal/tensor"
)

func clusteredVectors(seed int64, perCluster int) ([]*tensor.Tensor, []int) {
	rng := rand.New(rand.NewSource(seed))
	centres := [][]float64{{0, 0}, {10, 0}, {0, 10}}
	var vs []*tensor.Tensor
	var labels []int
	for ci, c := range centres {
		for i := 0; i < perCluster; i++ {
			v := tensor.From([]float64{
				c[0] + rng.NormFloat64()*0.5,
				c[1] + rng.NormFloat64()*0.5,
			}, 2)
			vs = append(vs, v)
			labels = append(labels, ci)
		}
	}
	return vs, labels
}

func TestKMeansRecoversClusters(t *testing.T) {
	vs, labels := clusteredVectors(1, 20)
	km, err := KMeans(rand.New(rand.NewSource(2)), vs, 3, 50)
	if err != nil {
		t.Fatal(err)
	}
	// Every true cluster must map to a single k-means cell.
	for c := 0; c < 3; c++ {
		seen := map[int]bool{}
		for i, l := range labels {
			if l == c {
				seen[km.Assign[i]] = true
			}
		}
		if len(seen) != 1 {
			t.Errorf("true cluster %d split across %d cells", c, len(seen))
		}
	}
	if km.Inertia > float64(len(vs))*1.0 {
		t.Errorf("inertia %g too high for tight clusters", km.Inertia)
	}
}

func TestKMeansErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	if _, err := KMeans(rng, nil, 2, 10); err == nil {
		t.Error("empty input accepted")
	}
	vs, _ := clusteredVectors(4, 2)
	if _, err := KMeans(rng, vs, 0, 10); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := KMeans(rng, vs, len(vs)+1, 10); err == nil {
		t.Error("k>n accepted")
	}
	bad := append(vs[:1], tensor.New(3))
	if _, err := KMeans(rng, bad, 1, 10); err == nil {
		t.Error("mismatched dims accepted")
	}
}

func TestKMeansKEqualsN(t *testing.T) {
	vs, _ := clusteredVectors(5, 2)
	km, err := KMeans(rand.New(rand.NewSource(6)), vs, len(vs), 10)
	if err != nil {
		t.Fatal(err)
	}
	if km.Inertia > 1e-9 {
		t.Errorf("k=n inertia = %g, want ≈ 0", km.Inertia)
	}
}

func TestKMeansDeterministic(t *testing.T) {
	vs, _ := clusteredVectors(7, 10)
	a, _ := KMeans(rand.New(rand.NewSource(8)), vs, 3, 20)
	b, _ := KMeans(rand.New(rand.NewSource(8)), vs, 3, 20)
	if math.Abs(a.Inertia-b.Inertia) > 1e-12 {
		t.Error("same seed produced different clusterings")
	}
}

// TestKMeansNoEmptyClusters pins the farthest-point re-seeding contract:
// whenever the data has at least k distinct points, a fitted codebook
// never returns a dead centroid — every cell owns at least one point.
func TestKMeansNoEmptyClusters(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		// Adversarial shape for Lloyd: one dense blob plus a few remote
		// points, with k far above the natural cluster count, which is
		// exactly the regime where cells empty out mid-iteration.
		var vs []*tensor.Tensor
		for i := 0; i < 40; i++ {
			vs = append(vs, tensor.From([]float64{rng.NormFloat64() * 0.1, rng.NormFloat64() * 0.1}, 2))
		}
		for i := 0; i < 3; i++ {
			vs = append(vs, tensor.From([]float64{50 + rng.NormFloat64(), 50 + rng.NormFloat64()}, 2))
		}
		k := 8
		km, err := KMeans(rng, vs, k, 30)
		if err != nil {
			t.Fatal(err)
		}
		occupied := make([]int, k)
		for _, a := range km.Assign {
			occupied[a]++
		}
		for ci, c := range occupied {
			if c == 0 {
				t.Errorf("seed %d: cluster %d is empty (occupancy %v)", seed, ci, occupied)
			}
		}
	}
}

// TestKMeansReseedDeterministic: the re-seeding path must stay inside the
// determinism contract — same seed, same data, bitwise-identical
// centroids.
func TestKMeansReseedDeterministic(t *testing.T) {
	build := func() *KMeansResult {
		rng := rand.New(rand.NewSource(31))
		var vs []*tensor.Tensor
		for i := 0; i < 30; i++ {
			vs = append(vs, tensor.From([]float64{rng.NormFloat64() * 0.1, rng.NormFloat64() * 0.1}, 2))
		}
		vs = append(vs, tensor.From([]float64{40, 40}, 2))
		km, err := KMeans(rng, vs, 6, 25)
		if err != nil {
			t.Fatal(err)
		}
		return km
	}
	a, b := build(), build()
	for ci := range a.Centroids {
		ad, bd := a.Centroids[ci].Data(), b.Centroids[ci].Data()
		for d := range ad {
			if math.Float64bits(ad[d]) != math.Float64bits(bd[d]) {
				t.Fatalf("centroid %d dim %d differs: %v vs %v", ci, d, ad[d], bd[d])
			}
		}
	}
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatalf("assignment %d differs", i)
		}
	}
}

// TestKMeansFewerDistinctPointsThanK: with fewer distinct values than k
// there is nothing to separate; the fit must still return (duplicate
// centroids allowed) with zero inertia and consistent assignments.
func TestKMeansFewerDistinctPointsThanK(t *testing.T) {
	var vs []*tensor.Tensor
	for i := 0; i < 6; i++ {
		vs = append(vs, tensor.From([]float64{1, 2}, 2))
	}
	for i := 0; i < 6; i++ {
		vs = append(vs, tensor.From([]float64{9, 9}, 2))
	}
	km, err := KMeans(rand.New(rand.NewSource(33)), vs, 5, 20)
	if err != nil {
		t.Fatal(err)
	}
	if km.Inertia > 1e-12 {
		t.Errorf("inertia %g, want 0 (every point sits on a centroid)", km.Inertia)
	}
	for i, a := range km.Assign {
		if d := vs[i].SquaredDistance(km.Centroids[a]); d > 1e-12 {
			t.Errorf("point %d assigned to centroid at distance %g", i, d)
		}
	}
}
