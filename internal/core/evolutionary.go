package core

import (
	"errors"
	"math"
	"slices"

	"duo/internal/video"
)

func init() {
	RegisterOptimizer(StrategyEvolutionary, func() BlackBoxOptimizer { return evolutionary{} })
}

// StrategyEvolutionary selects the population-based strategy.
const StrategyEvolutionary = "evolutionary"

const (
	// evoPopSize is the population size (one victim query per unevaluated
	// individual per generation).
	evoPopSize = 8
	// evoElites survive each generation unchanged, fitness cached — the
	// elitism that makes the best-so-far trajectory monotone without
	// re-billing known candidates.
	evoElites = 2
	// evoTournament is the tournament size for parent selection.
	evoTournament = 3
	// evoMutRate is the per-gene mutation probability.
	evoMutRate = 0.25
	// evoMutSigma scales the Gaussian mutation step in units of τ.
	evoMutSigma = 0.25
)

// evolutionary is a population-based frame-pixel search in the spirit of
// the evolutionary/RL sparse-attack line (Yan et al., arXiv 2001.03754;
// the population attack of SNIPPETS.md snippet 1): a population of
// perturbation genomes over the SparseTransfer support evolves by
// deterministic tournament selection, uniform crossover, and Gaussian
// mutation, with the victim's rank-similarity objective 𝕋 as fitness. The
// transfer prior seeds individual 0 (its fitness is the harness's initial
// evaluation — never re-billed), elites carry cached fitness across
// generations, and every randomness draw comes from the seeded oracle RNG,
// so the whole evolution is a pure function of the seed.
type evolutionary struct{}

func (evolutionary) Name() string { return StrategyEvolutionary }

func (evolutionary) Optimize(o *Oracle) error {
	rng := o.Rng()
	support := o.Support()
	base := o.Base().Data.Data()
	tau := o.Tau()

	// A genome is the perturbation over the support, in [-τ, τ].
	genomeOf := func(v []float64) []float64 {
		g := make([]float64, len(support))
		for i, idx := range support {
			g[i] = v[idx] - base[idx]
		}
		return g
	}
	toVideo := func(g []float64) *video.Video {
		// Strategies only ever write the support, so the current state's
		// off-support elements equal the base's and a recycled candidate
		// plus a full support overwrite reproduces Base().Clone() exactly.
		cand := o.NewCandidate()
		for i, idx := range support {
			o.SetStep(cand, idx, base[idx]+g[i])
		}
		return cand
	}
	// freeGenomes recycles the genome storage of individuals that did not
	// survive a generation swap; children overwrite every element, so a
	// recycled genome needs no clearing.
	var freeGenomes [][]float64
	newGenome := func() []float64 {
		if n := len(freeGenomes); n > 0 {
			g := freeGenomes[n-1]
			freeGenomes = freeGenomes[:n-1]
			return g
		}
		return make([]float64, len(support))
	}

	pop := make([][]float64, 0, evoPopSize)
	fit := make([]float64, evoPopSize)
	known := make([]bool, evoPopSize)
	// Individual 0 is the transfer prior; its 𝕋 was already charged by the
	// harness's initial evaluation.
	pop = append(pop, genomeOf(o.Current().Data.Data()))
	fit[0], known[0] = o.CurrentT(), true
	for len(pop) < evoPopSize {
		g := make([]float64, len(support))
		for i := range g {
			g[i] = (rng.Float64()*2 - 1) * tau
		}
		pop = append(pop, g)
	}

	// fitter orders two individuals: lower 𝕋 wins, index breaks ties so
	// selection is deterministic under equal fitness.
	fitter := func(a, b int) bool {
		if fit[a] != fit[b] { // exact equality is the tie: both operands are the same unrounded computation
			return fit[a] < fit[b]
		}
		return a < b
	}
	// cmpFitter is fitter as a three-way comparison. It is a strict total
	// order, so the sorted sequence is unique and algorithm-independent
	// (sort.Slice and slices.SortFunc agree bitwise; the latter boxes
	// nothing).
	cmpFitter := func(a, b int) int {
		if fitter(a, b) {
			return -1
		}
		if fitter(b, a) {
			return 1
		}
		return 0
	}
	// tournament picks the fittest of evoTournament uniform draws; it is
	// hoisted out of the generation loop so no closure is rebuilt per
	// generation (pop and fit rebind at each swap, which the captures see).
	tournament := func() []float64 {
		best := -1
		for t := 0; t < evoTournament; t++ {
			c := rng.Intn(len(pop))
			if best < 0 || fitter(c, best) {
				best = c
			}
		}
		return pop[best]
	}

	// Per-generation workspaces, allocated once and swapped with the live
	// population at each generation boundary.
	order := make([]int, evoPopSize)
	nextBuf := make([][]float64, 0, evoPopSize)
	nfitBuf := make([]float64, evoPopSize)
	nknownBuf := make([]bool, evoPopSize)

	gen := 0
	for o.Remaining() > 0 {
		sp := o.StepStart()
		sp.SetInt("gen", int64(gen))

		// Evaluate the unevaluated individuals, one billed query each, and
		// commit any non-increasing candidate as the new best.
		evaluated := 0
		for i := range pop {
			if known[i] {
				continue
			}
			if o.Remaining() == 0 {
				fit[i] = math.Inf(1)
				continue
			}
			cand := toVideo(pop[i])
			tNew, err := o.Score(cand)
			known[i] = true
			switch {
			case errors.Is(err, ErrBudgetExhausted):
				fit[i] = math.Inf(1)
			case err != nil:
				o.Skip()
				fit[i] = math.Inf(1)
			default:
				fit[i] = tNew
				evaluated++
				o.Accept(cand, tNew)
			}
			o.Release(cand)
		}
		sp.SetInt("evaluated", int64(evaluated))
		o.Record()
		sp.SetFloat("T", o.CurrentT())
		o.StepEnd(sp)
		gen++
		if o.Remaining() == 0 {
			break
		}

		// Rank deterministically (fitness ascending, index tie-break).
		for i := range order {
			order[i] = i
		}
		slices.SortFunc(order, cmpFitter)

		// Next generation: elites survive with cached fitness; the rest
		// are tournament-selected parents crossed uniformly and mutated.
		next := nextBuf[:0]
		nfit := nfitBuf
		nknown := nknownBuf
		for i := range nknown {
			nknown[i] = false
		}
		for e := 0; e < evoElites && e < len(order); e++ {
			i := order[e]
			next = append(next, pop[i])
			nfit[e], nknown[e] = fit[i], known[i]
		}
		for len(next) < evoPopSize {
			pa, pb := tournament(), tournament()
			child := newGenome()
			for i := range child {
				if rng.Intn(2) == 0 {
					child[i] = pa[i]
				} else {
					child[i] = pb[i]
				}
				if rng.Float64() < evoMutRate {
					child[i] += rng.NormFloat64() * evoMutSigma * tau
					child[i] = math.Max(-tau, math.Min(tau, child[i]))
				}
			}
			next = append(next, child)
		}
		pop, nextBuf = next, pop
		fit, nfitBuf = nfit, fit
		known, nknownBuf = nknown, known
		// Recycle the genomes of non-surviving individuals: anything in the
		// displaced population not aliased by an elite is dead storage.
		for _, g := range nextBuf {
			live := false
			for _, h := range pop[:evoElites] {
				if &g[0] == &h[0] {
					live = true
					break
				}
			}
			if !live {
				freeGenomes = append(freeGenomes, g)
			}
		}
	}
	return nil
}
