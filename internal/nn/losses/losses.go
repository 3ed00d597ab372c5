// Package losses implements the metric-learning objectives the paper trains
// victim and surrogate models with: Triplet (margin), ArcFace, Lifted
// Structure, and Angular loss, plus the ranked-list loss used for model
// stealing (§IV-B-1).
//
// Each loss consumes a batch of embeddings with integer labels and returns
// the scalar loss together with the gradient with respect to every
// embedding; the caller backpropagates those gradients through the
// feature-extractor network.
package losses

import (
	"fmt"
	"math"
	"math/rand"

	"duo/internal/mathx"
	"duo/internal/nn"
	"duo/internal/tensor"
)

// MetricLoss scores a batch of embeddings against labels.
type MetricLoss interface {
	// Name returns the loss's identifier as used in experiment tables.
	Name() string
	// Loss returns the scalar loss and per-embedding gradients.
	Loss(embs []*tensor.Tensor, labels []int) (float64, []*tensor.Tensor)
	// Params returns learnable loss parameters (e.g. the ArcFace class
	// weight matrix); nil when the loss is parameter-free.
	Params() []*nn.Param
}

// ByName builds a metric loss by its table name: "ArcFaceLoss",
// "LiftedLoss", "AngularLoss" or "Triplet", with the paper's settings. Only
// ArcFace draws from rng (its classes×dim weight matrix).
func ByName(name string, rng *rand.Rand, classes, dim int) (MetricLoss, error) {
	switch name {
	case "ArcFaceLoss":
		return NewArcFace(rng, classes, dim), nil
	case "LiftedLoss":
		return Lifted{Margin: 1.0}, nil
	case "AngularLoss":
		return Angular{AlphaDeg: 40}, nil
	case "Triplet":
		return Triplet{Margin: 0.2}, nil
	default:
		return nil, fmt.Errorf("losses: unknown loss %q", name)
	}
}

func zeroGrads(embs []*tensor.Tensor) []*tensor.Tensor {
	gs := make([]*tensor.Tensor, len(embs))
	for i, e := range embs {
		gs[i] = tensor.New(e.Shape()...)
	}
	return gs
}

// Triplet is the margin-based triplet loss Σ [D(a,p) − D(a,n) + γ]₊ with
// squared Euclidean D, summed over every in-batch triplet.
type Triplet struct{ Margin float64 }

var _ MetricLoss = Triplet{}

// Name implements MetricLoss.
func (Triplet) Name() string { return "Triplet" }

// Params implements MetricLoss.
func (Triplet) Params() []*nn.Param { return nil }

// Loss implements MetricLoss.
func (l Triplet) Loss(embs []*tensor.Tensor, labels []int) (float64, []*tensor.Tensor) {
	grads := zeroGrads(embs)
	loss := 0.0
	count := 0
	for a := range embs {
		for p := range embs {
			if p == a || labels[p] != labels[a] {
				continue
			}
			for n := range embs {
				if labels[n] == labels[a] {
					continue
				}
				dap := embs[a].SquaredDistance(embs[p])
				dan := embs[a].SquaredDistance(embs[n])
				v := dap - dan + l.Margin
				if v <= 0 {
					continue
				}
				loss += v
				count++
				// d(dap)/da = 2(a-p); d(dan)/da = 2(a-n).
				grads[a].AddScaled(2, embs[a].Sub(embs[p])).AddScaled(-2, embs[a].Sub(embs[n]))
				grads[p].AddScaled(-2, embs[a].Sub(embs[p]))
				grads[n].AddScaled(2, embs[a].Sub(embs[n]))
			}
		}
	}
	if count > 0 {
		inv := 1 / float64(count)
		loss *= inv
		for _, g := range grads {
			g.ScaleInPlace(inv)
		}
	}
	return loss, grads
}

// RankedList is the surrogate-stealing objective of §IV-B-1: given an
// anchor embedding and list embeddings in the victim's rank order, it
// enforces D(a, e_i) + γ ≤ D(a, e_j) for every ranked pair i < j.
//
// The paper prints the objective as arg max Σ_{j>i}[D(v,v_j)−D(v,v_i)+γ]₊;
// maximizing that hinge is equivalent to the standard formulation of
// minimizing Σ_{j>i}[D(v,v_i)−D(v,v_j)+γ]₊, which is what we implement.
type RankedList struct{ Margin float64 }

// Loss returns the loss and the gradients with respect to the anchor and
// every ranked embedding.
func (l RankedList) Loss(anchor *tensor.Tensor, ranked []*tensor.Tensor) (float64, *tensor.Tensor, []*tensor.Tensor) {
	ga := tensor.New(anchor.Shape()...)
	gs := zeroGrads(ranked)
	loss := 0.0
	count := 0
	for i := 0; i < len(ranked); i++ {
		for j := i + 1; j < len(ranked); j++ {
			di := anchor.SquaredDistance(ranked[i])
			dj := anchor.SquaredDistance(ranked[j])
			v := di - dj + l.Margin
			if v <= 0 {
				continue
			}
			loss += v
			count++
			ga.AddScaled(2, anchor.Sub(ranked[i])).AddScaled(-2, anchor.Sub(ranked[j]))
			gs[i].AddScaled(-2, anchor.Sub(ranked[i]))
			gs[j].AddScaled(2, anchor.Sub(ranked[j]))
		}
	}
	if count > 0 {
		inv := 1 / float64(count)
		loss *= inv
		ga.ScaleInPlace(inv)
		for _, g := range gs {
			g.ScaleInPlace(inv)
		}
	}
	return loss, ga, gs
}

// Lifted is the lifted-structure loss (Oh Song et al., CVPR'16):
// for every positive pair (i,j),
//
//	ℓ = [ log( Σ_{k∈N(i)} e^{γ−D_ik} + Σ_{l∈N(j)} e^{γ−D_jl} ) + D_ij ]₊
//
// with Euclidean D, and the total loss is Σ ℓ² / (2|P|).
type Lifted struct{ Margin float64 }

var _ MetricLoss = Lifted{}

// Name implements MetricLoss.
func (Lifted) Name() string { return "LiftedLoss" }

// Params implements MetricLoss.
func (Lifted) Params() []*nn.Param { return nil }

// Loss implements MetricLoss.
func (l Lifted) Loss(embs []*tensor.Tensor, labels []int) (float64, []*tensor.Tensor) {
	grads := zeroGrads(embs)
	loss := 0.0
	pairs := 0

	dist := func(i, j int) float64 { return math.Max(embs[i].Distance(embs[j]), 1e-8) }
	// dD_ij/de_i = (e_i - e_j)/D_ij.
	addDistGrad := func(i, j int, w float64) {
		d := dist(i, j)
		grads[i].AddScaled(w/d, embs[i].Sub(embs[j]))
		grads[j].AddScaled(-w/d, embs[i].Sub(embs[j]))
	}

	for i := range embs {
		for j := i + 1; j < len(embs); j++ {
			if labels[i] != labels[j] {
				continue
			}
			pairs++
			// logsumexp over negatives of i and j.
			var terms []float64
			type negTerm struct{ a, b int }
			var whose []negTerm
			for k := range embs {
				if labels[k] != labels[i] {
					terms = append(terms, l.Margin-dist(i, k))
					whose = append(whose, negTerm{i, k})
				}
			}
			for k := range embs {
				if labels[k] != labels[j] {
					terms = append(terms, l.Margin-dist(j, k))
					whose = append(whose, negTerm{j, k})
				}
			}
			if len(terms) == 0 {
				continue
			}
			lse := mathx.LogSumExp(terms)
			inner := lse + dist(i, j)
			if inner <= 0 {
				continue
			}
			loss += inner * inner
			// d(inner²)/d· = 2·inner · d(inner)/d·.
			w := 2 * inner
			addDistGrad(i, j, w)
			// d lse / d D_ak = -softmax weight of that term.
			sm := mathx.Softmax(terms)
			for t, nt := range whose {
				addDistGrad(nt.a, nt.b, -w*sm[t])
			}
		}
	}
	if pairs > 0 {
		inv := 1 / (2 * float64(pairs))
		loss *= inv
		for _, g := range grads {
			g.ScaleInPlace(inv)
		}
	}
	return loss, grads
}

// Angular is the angular loss (Wang et al., ICCV'17) in its hinge form:
// for each triplet (a, p, n),
//
//	ℓ = [ ‖a−p‖² − 4·tan²(α)·‖n − (a+p)/2‖² ]₊
//
// averaged over active triplets.
type Angular struct {
	// AlphaDeg is the angle bound α in degrees (the reference
	// implementation uses 36–55°).
	AlphaDeg float64
}

var _ MetricLoss = Angular{}

// Name implements MetricLoss.
func (Angular) Name() string { return "AngularLoss" }

// Params implements MetricLoss.
func (Angular) Params() []*nn.Param { return nil }

// Loss implements MetricLoss.
func (l Angular) Loss(embs []*tensor.Tensor, labels []int) (float64, []*tensor.Tensor) {
	grads := zeroGrads(embs)
	tan := math.Tan(l.AlphaDeg * math.Pi / 180)
	c := 4 * tan * tan
	loss := 0.0
	count := 0
	for a := range embs {
		for p := range embs {
			if p == a || labels[p] != labels[a] {
				continue
			}
			for n := range embs {
				if labels[n] == labels[a] {
					continue
				}
				ap := embs[a].Sub(embs[p])
				mid := embs[a].Add(embs[p]).Scale(0.5)
				nm := embs[n].Sub(mid)
				v := ap.SquaredL2() - c*nm.SquaredL2()
				if v <= 0 {
					continue
				}
				loss += v
				count++
				// d‖a−p‖²/da = 2(a−p); d‖n−(a+p)/2‖²/da = −(n−mid).
				grads[a].AddScaled(2, ap).AddScaled(c, nm)
				grads[p].AddScaled(-2, ap).AddScaled(c, nm)
				grads[n].AddScaled(-2*c, nm)
			}
		}
	}
	if count > 0 {
		inv := 1 / float64(count)
		loss *= inv
		for _, g := range grads {
			g.ScaleInPlace(inv)
		}
	}
	return loss, grads
}
