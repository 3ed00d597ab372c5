// Package admm implements the ℓp-box ADMM scheme of Wu & Ghanem (reference
// [18] of the paper) for the binary program that SparseTransfer's pixel-mask
// step (Algorithm 1, line 4) solves:
//
//	minimize    cᵀx
//	subject to  1ᵀx = k,   x ∈ {0,1}^d .
//
// The binary constraint is replaced by the intersection of the box [0,1]^d
// with the sphere ‖x − ½·1‖² = d/4 (the "ℓ₂-box"), and ADMM alternates
// between an unconstrained quadratic x-update (solved in closed form via
// Sherman–Morrison), projections onto the box and the sphere, and dual
// ascent. The relaxed solution is binarized to exactly k ones by top-k.
package admm

import (
	"fmt"
	"math"
	"slices"
)

// Config tunes the solver.
type Config struct {
	// Rho is the initial penalty weight for the box/sphere splits.
	Rho float64
	// RhoCard is the penalty weight for the cardinality constraint 1ᵀx=k.
	RhoCard float64
	// RhoGrowth multiplies the penalties every iteration (>1 accelerates
	// consensus; the reference implementation uses ~1.03).
	RhoGrowth float64
	// MaxIter bounds the ADMM iterations.
	MaxIter int
	// Tol stops early when both primal residuals fall below it.
	Tol float64
}

// DefaultConfig returns the settings used throughout the experiments.
func DefaultConfig() Config {
	return Config{Rho: 1, RhoCard: 1, RhoGrowth: 1.03, MaxIter: 200, Tol: 1e-6}
}

// Result reports the solver outcome.
type Result struct {
	// X is the binary solution (exactly K ones).
	X []bool
	// Objective is cᵀx at the returned solution.
	Objective float64
	// Iterations is the number of ADMM iterations performed.
	Iterations int
	// Converged reports whether the primal residuals met Tol.
	Converged bool
}

// MinimizeCardinality solves min cᵀx s.t. 1ᵀx = k, x binary.
func MinimizeCardinality(c []float64, k int, cfg Config) (*Result, error) {
	d := len(c)
	if d == 0 {
		return nil, fmt.Errorf("admm: empty cost vector")
	}
	if k < 0 || k > d {
		return nil, fmt.Errorf("admm: k=%d out of range [0,%d]", k, d)
	}
	if cfg.MaxIter <= 0 {
		cfg = DefaultConfig()
	}

	x := make([]float64, d)
	r := make([]float64, d)  // x-update right-hand side
	y1 := make([]float64, d) // box copy
	y2 := make([]float64, d) // sphere copy
	z1 := make([]float64, d) // dual for x=y1
	z2 := make([]float64, d) // dual for x=y2
	z3 := 0.0                // dual for 1ᵀx=k
	for i := range x {
		x[i] = float64(k) / float64(d)
		y1[i], y2[i] = x[i], x[i]
	}

	rho := cfg.Rho
	rhoC := cfg.RhoCard
	radius := math.Sqrt(float64(d)) / 2

	res := &Result{}
	for it := 0; it < cfg.MaxIter; it++ {
		res.Iterations = it + 1

		// y1-update: projection onto the box [0,1]^d. The branches are
		// math.Max(0, math.Min(1, v)): −0 and everything below map to +0,
		// NaN stays NaN.
		for i := range y1 {
			v := x[i] + z1[i]/rho
			switch {
			case v >= 1:
				v = 1
			case v <= 0:
				v = 0
			}
			y1[i] = v
		}

		// y2-update: projection onto the sphere ‖y − ½‖ = √d/2.
		norm := 0.0
		for i := range y2 {
			v := x[i] + z2[i]/rho - 0.5
			y2[i] = v
			norm += v * v
		}
		norm = math.Sqrt(norm)
		if norm < 1e-12 {
			// Degenerate centre: any sphere point works; pick axis 0.
			for i := range y2 {
				y2[i] = 0.5
			}
			y2[0] = 0.5 + radius
		} else {
			s := radius / norm
			for i := range y2 {
				y2[i] = 0.5 + y2[i]*s
			}
		}

		// x-update: minimize
		//   cᵀx + Σ zᵢᵀ(x−yᵢ) + z₃(1ᵀx−k) + ρ‖x−y₁‖²/2 + ρ‖x−y₂‖²/2
		//   + ρ_c(1ᵀx−k)²/2 ,
		// i.e. solve (2ρ·I + ρ_c·11ᵀ)x = r with Sherman–Morrison.
		a := 2 * rho
		b := rhoC
		sumR := 0.0
		for i := range r {
			r[i] = rho*(y1[i]+y2[i]) - c[i] - z1[i] - z2[i] - z3 + b*float64(k)
			sumR += r[i]
		}
		corr := b / (a * (a + b*float64(d))) * sumR
		sumX := 0.0
		maxR1 := 0.0
		maxR2 := 0.0
		for i := range x {
			x[i] = r[i]/a - corr
			sumX += x[i]
		}

		// Dual ascent.
		for i := range x {
			r1 := x[i] - y1[i]
			r2 := x[i] - y2[i]
			z1[i] += rho * r1
			z2[i] += rho * r2
			if math.Abs(r1) > maxR1 {
				maxR1 = math.Abs(r1)
			}
			if math.Abs(r2) > maxR2 {
				maxR2 = math.Abs(r2)
			}
		}
		z3 += rhoC * (sumX - float64(k))

		rho *= cfg.RhoGrowth
		rhoC *= cfg.RhoGrowth

		if maxR1 < cfg.Tol && maxR2 < cfg.Tol {
			res.Converged = true
			break
		}
	}

	// Binarize to exactly k ones: keep the k largest relaxed coordinates.
	res.X = topKMask(x, k)
	for i, on := range res.X {
		if on {
			res.Objective += c[i]
		}
	}
	return res, nil
}

// topKMask returns a boolean mask with true at the indices of the k largest
// values, ties broken toward the lower index: everything above the k-th
// largest value, then the earliest indices holding exactly that value.
func topKMask(x []float64, k int) []bool {
	mask := make([]bool, len(x))
	k = min(k, len(x))
	if k <= 0 {
		return mask
	}
	sorted := slices.Clone(x)
	slices.Sort(sorted)
	kth := sorted[len(x)-k]
	need := k
	for i, v := range x {
		if v > kth {
			mask[i] = true
			need--
		}
	}
	for i, v := range x {
		if need == 0 {
			break
		}
		if !mask[i] && !(v < kth) {
			mask[i] = true
			need--
		}
	}
	return mask
}

// TopKByScore is the plain (non-ADMM) comparator used by the ablation in
// DESIGN.md §6: select the k coordinates with the lowest cost directly.
func TopKByScore(c []float64, k int) []bool {
	neg := make([]float64, len(c))
	for i, v := range c {
		neg[i] = -v
	}
	return topKMask(neg, k)
}
