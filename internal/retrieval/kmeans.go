package retrieval

import (
	"fmt"
	"math"
	"math/rand"

	"duo/internal/tensor"
)

// KMeansResult holds a fitted codebook.
type KMeansResult struct {
	// Centroids are the k cluster centres.
	Centroids []*tensor.Tensor
	// Assign maps each input vector to its centroid index.
	Assign []int
	// Inertia is the final sum of squared distances to assigned centroids.
	Inertia float64
	// Iterations is the number of Lloyd iterations run.
	Iterations int
}

// KMeans fits k centroids to the vectors with Lloyd's algorithm and
// k-means++ seeding. It is the per-subspace codebook trainer behind the PQ
// index (and the coarse quantizer of duobench's cell-probe baseline).
// Clusters that empty out during Lloyd iterations are re-seeded
// deterministically from the point farthest from its assigned centroid, so
// a fitted codebook never silently carries dead centroids (unless the data
// has fewer distinct points than k).
func KMeans(rng *rand.Rand, vectors []*tensor.Tensor, k, maxIter int) (*KMeansResult, error) {
	n := len(vectors)
	if n == 0 {
		return nil, fmt.Errorf("retrieval: kmeans: no vectors")
	}
	if k <= 0 || k > n {
		return nil, fmt.Errorf("retrieval: kmeans: k=%d out of range (0, %d]", k, n)
	}
	if maxIter <= 0 {
		maxIter = 25
	}
	dim := vectors[0].Len()
	for i, v := range vectors {
		if v.Len() != dim {
			return nil, fmt.Errorf("retrieval: kmeans: vector %d has dim %d, want %d", i, v.Len(), dim)
		}
	}

	// k-means++ seeding: first centre uniform, then proportional to the
	// squared distance to the nearest chosen centre.
	centroids := make([]*tensor.Tensor, 0, k)
	centroids = append(centroids, vectors[rng.Intn(n)].Clone())
	d2 := make([]float64, n)
	for len(centroids) < k {
		total := 0.0
		for i, v := range vectors {
			best := math.Inf(1)
			for _, c := range centroids {
				if d := v.SquaredDistance(c); d < best {
					best = d
				}
			}
			d2[i] = best
			total += best
		}
		if total == 0 {
			// All points coincide with chosen centres; duplicate one.
			centroids = append(centroids, vectors[rng.Intn(n)].Clone())
			continue
		}
		r := rng.Float64() * total
		acc := 0.0
		pick := n - 1
		for i, d := range d2 {
			acc += d
			if acc >= r {
				pick = i
				break
			}
		}
		centroids = append(centroids, vectors[pick].Clone())
	}

	res := &KMeansResult{Centroids: centroids, Assign: make([]int, n)}
	pointDist := make([]float64, n)
	assign := func() {
		inertia := 0.0
		for i, v := range vectors {
			best, bi := math.Inf(1), 0
			for ci, c := range centroids {
				if d := v.SquaredDistance(c); d < best {
					best, bi = d, ci
				}
			}
			res.Assign[i] = bi
			pointDist[i] = best
			inertia += best
		}
		res.Inertia = inertia
	}
	prevInertia := math.Inf(1)
	reseeded := false
	for it := 0; it < maxIter; it++ {
		res.Iterations = it + 1
		assign()

		// Update step.
		counts := make([]int, k)
		sums := make([]*tensor.Tensor, k)
		for ci := range sums {
			sums[ci] = tensor.New(dim)
		}
		for i, v := range vectors {
			ci := res.Assign[i]
			counts[ci]++
			sums[ci].AddInPlace(v.Reshape(dim))
		}
		reseeded = false
		for ci := range centroids {
			if counts[ci] > 0 {
				centroids[ci] = sums[ci].Scale(1 / float64(counts[ci]))
				continue
			}
			// Empty cluster: re-seed deterministically from the point
			// farthest from its assigned centroid (lowest index on ties).
			// Consuming that point's distance prevents two empty clusters
			// from claiming the same re-seed in one pass. If every point
			// coincides with a centroid (fewer distinct points than k) the
			// duplicate centroid is left in place — there is nothing to
			// separate.
			far, fd := -1, 0.0
			for i, d := range pointDist {
				if d > fd {
					far, fd = i, d
				}
			}
			if far < 0 {
				continue
			}
			centroids[ci] = vectors[far].Clone()
			pointDist[far] = 0
			reseeded = true
		}

		if reseeded {
			// A re-seeded centroid invalidates the assignment this inertia
			// was computed from; force another Lloyd round so points can
			// migrate to it before convergence is declared.
			prevInertia = math.Inf(1)
			continue
		}
		if math.Abs(prevInertia-res.Inertia) < 1e-9*(1+res.Inertia) {
			break
		}
		prevInertia = res.Inertia
	}
	if reseeded {
		// The loop ended on a re-seeding pass: refresh the assignment so
		// Assign/Inertia describe the returned centroids.
		assign()
	}
	return res, nil
}
