package nn

import (
	"fmt"
	"math/rand"

	"duo/internal/tensor"
)

// Linear is a fully-connected layer: y = W·x + b for rank-1 inputs.
type Linear struct {
	In, Out int
	W       *Param // shape [Out, In]
	B       *Param // shape [Out]
}

// NewLinear returns a Linear layer with He-initialized weights.
func NewLinear(rng *rand.Rand, in, out int) *Linear {
	w := tensor.New(out, in)
	HeInit(rng, w, in)
	return &Linear{
		In:  in,
		Out: out,
		W:   NewParam(fmt.Sprintf("linear%dx%d.W", out, in), w),
		B:   NewParam(fmt.Sprintf("linear%dx%d.B", out, in), tensor.New(out)),
	}
}

type linearCache struct{ x *tensor.Tensor }

// Forward implements Layer.
func (l *Linear) Forward(x *tensor.Tensor) (*tensor.Tensor, Cache) { return forward(l, x) }

// affine fills y = W·x + b: each output is its row's dot product in
// ascending index order, plus the bias.
func (l *Linear) affine(y, x []float64) {
	wd, bd := l.W.Value.Data(), l.B.Value.Data()
	for o := range y {
		s := 0.0
		for k, rv := range wd[o*l.In : (o+1)*l.In] {
			s += rv * x[k]
		}
		y[o] = s + bd[o]
	}
}

// Backward implements Layer. A trainable layer scatters W.Grad, B.Grad and
// dx in one walk over the output rows; a frozen one gathers dx per input
// element, adding its terms in the same ascending-o order, so dx has the
// same bits either way (DESIGN.md §9).
func (l *Linear) Backward(c Cache, gradOut *tensor.Tensor) *tensor.Tensor {
	lc := c.(*linearCache)
	// dW[o,i] += g[o] * x[i]; db[o] += g[o]; dx[i] = Σ_o W[o,i] g[o].
	g := gradOut.Data()
	wd := l.W.Value.Data()
	wg := l.W.gradData()
	bg := l.B.gradData()
	dx := tensor.New(l.In)
	dxd := dx.Data()
	if wg == nil {
		for i := range dxd {
			s := 0.0
			for o := 0; o < l.Out; o++ {
				s += wd[o*l.In+i] * g[o]
			}
			dxd[i] = s
		}
		return dx
	}
	x := lc.x.Data()
	for o := 0; o < l.Out; o++ {
		go_ := g[o]
		bg[o] += go_
		row := wd[o*l.In : (o+1)*l.In]
		grow := wg[o*l.In : (o+1)*l.In]
		for i := 0; i < l.In; i++ {
			grow[i] += go_ * x[i]
			dxd[i] += row[i] * go_
		}
	}
	return dx
}

// Params implements Layer.
func (l *Linear) Params() []*Param { return []*Param{l.W, l.B} }
