package core

import (
	"errors"
	"math"
)

func init() {
	RegisterOptimizer(StrategySparseRS, func() BlackBoxOptimizer { return sparseRS{} })
}

// StrategySparseRS selects the Sparse-RS random-search strategy.
const StrategySparseRS = "sparsers"

const (
	// sparseRSAlphaInit is α_init: the fraction of the support resampled
	// per iteration at the start of the schedule.
	sparseRSAlphaInit = 0.8
	// sparseRSMaxNoop bounds consecutive no-op candidates (every sampled
	// vertex value already present bit-for-bit): the strategy bails out
	// rather than spin RNG without spending budget. In practice only a
	// fully saturated box hits this.
	sparseRSMaxNoop = 64
)

// sparseRSMilestones are the budget fractions at which α halves — the
// piecewise-constant decay schedule of Sparse-RS (Croce et al., 2022,
// arXiv 2006.12834), rescaled from their 10k-query budgets to this repo's
// smaller ones. Early iterations resample most of the support (global
// exploration); late iterations flip a few elements at a time (local
// refinement).
var sparseRSMilestones = []float64{0.02, 0.06, 0.15, 0.3, 0.5, 0.75}

// sparseRSAlpha returns the resampling fraction for the current budget
// position.
func sparseRSAlpha(used, budget int) float64 {
	frac := float64(used) / float64(budget)
	alpha := sparseRSAlphaInit
	for _, m := range sparseRSMilestones {
		if frac >= m {
			alpha /= 2
		}
	}
	return alpha
}

// sparseRS adapts Sparse-RS random search to DUO's masked setting: the
// sparse support is fixed by SparseTransfer (ℐ⊙𝓕⊙θ), so instead of moving
// the perturbed set, each iteration resamples the VALUES of a random
// α-fraction of the support to vertices of the ±τ box (Sparse-RS samples
// extreme values — box vertices maximize per-query signal), keeping the
// candidate iff 𝕋 does not increase. α follows the paper's
// piecewise-halving schedule, so the walk anneals from global resampling
// to near-coordinate moves.
type sparseRS struct{}

func (sparseRS) Name() string { return StrategySparseRS }

func (sparseRS) Optimize(o *Oracle) error {
	rng := o.Rng()
	support := o.Support()
	base := o.Base().Data.Data()
	tau := o.Tau()
	noop := 0
	step := 0
	var order []int
	for o.Remaining() > 0 && noop < sparseRSMaxNoop {
		alpha := sparseRSAlpha(o.Used(), o.Budget())
		k := int(math.Round(alpha * float64(len(support))))
		if k < 1 {
			k = 1
		}
		if k > len(support) {
			k = len(support)
		}
		sp := o.StepStart()
		sp.SetInt("step", int64(step))
		sp.SetFloat("alpha", alpha)
		sp.SetInt("resampled", int64(k))

		// Resample k support elements of the current best to random ±τ
		// vertices (clamped into the pixel range by SetStep).
		cand := o.NewCandidate()
		order = permInto(rng, order, len(support))
		changed := false
		for _, j := range order[:k] {
			idx := support[j]
			mag := tau
			if rng.Intn(2) == 1 {
				mag = -tau
			}
			if o.SetStep(cand, idx, base[idx]+mag) {
				changed = true
			}
		}

		if changed {
			noop = 0
			tNew, err := o.Score(cand)
			switch {
			case errors.Is(err, ErrBudgetExhausted):
				// Backstop only — the Remaining() loop guard spends the
				// final query before this can fire.
			case err != nil:
				o.Skip()
			default:
				o.Accept(cand, tNew)
			}
		} else {
			noop++
		}
		o.Release(cand)
		o.Record()
		sp.SetFloat("T", o.CurrentT())
		o.StepEnd(sp)
		step++
	}
	return nil
}
