// Package opt implements the optimizer used for victim/surrogate training
// (Adam, per [44] in the paper) and the paper's step-decay learning-rate
// schedule for the SparseTransfer θ-step (lr 0.1, ×0.9 every 50 steps,
// §V-B).
package opt

import (
	"math"

	"duo/internal/nn"
	"duo/internal/tensor"
)

// Adam is the Adam optimizer (Kingma & Ba, ICLR'15).
type Adam struct {
	LR    float64
	Beta1 float64
	Beta2 float64
	Eps   float64

	t int
	m map[*nn.Param]*tensor.Tensor
	v map[*nn.Param]*tensor.Tensor
}

// NewAdam returns Adam with the standard β₁=0.9, β₂=0.999, ε=1e-8.
func NewAdam(lr float64) *Adam {
	return &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: make(map[*nn.Param]*tensor.Tensor),
		v: make(map[*nn.Param]*tensor.Tensor),
	}
}

// Step applies one update using each parameter's current .Grad and then
// leaves the gradients untouched (callers zero them).
func (o *Adam) Step(params []*nn.Param) {
	o.t++
	bc1 := 1 - math.Pow(o.Beta1, float64(o.t))
	bc2 := 1 - math.Pow(o.Beta2, float64(o.t))
	for _, p := range params {
		m, ok := o.m[p]
		if !ok {
			m = tensor.New(p.Value.Shape()...)
			o.m[p] = m
			o.v[p] = tensor.New(p.Value.Shape()...)
		}
		v := o.v[p]
		md, vd, gd, pd := m.Data(), v.Data(), p.Grad.Data(), p.Value.Data()
		for i, g := range gd {
			md[i] = o.Beta1*md[i] + (1-o.Beta1)*g
			vd[i] = o.Beta2*vd[i] + (1-o.Beta2)*g*g
			mhat := md[i] / bc1
			vhat := vd[i] / bc2
			pd[i] -= o.LR * mhat / (math.Sqrt(vhat) + o.Eps)
		}
	}
}

// StepDecay is a learning-rate schedule that multiplies the base rate by
// Factor every Every steps (the paper uses base 0.1, factor 0.9, every 50).
type StepDecay struct {
	Base   float64
	Factor float64
	Every  int
}

// At returns the learning rate for 0-indexed step k.
func (s StepDecay) At(k int) float64 {
	if s.Every <= 0 {
		return s.Base
	}
	return s.Base * math.Pow(s.Factor, float64(k/s.Every))
}

// PaperSchedule is the SparseQuery/SparseTransfer schedule from §V-B.
func PaperSchedule() StepDecay { return StepDecay{Base: 0.1, Factor: 0.9, Every: 50} }

// ZeroGrads clears the gradients of every parameter.
func ZeroGrads(params []*nn.Param) {
	for _, p := range params {
		p.ZeroGrad()
	}
}
