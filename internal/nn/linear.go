package nn

import (
	"fmt"
	"math/rand"

	"duo/internal/parallel"
	"duo/internal/tensor"
)

// Linear is a fully-connected layer: y = W·x + b for rank-1 inputs.
type Linear struct {
	In, Out int
	W       *Param // shape [Out, In]
	B       *Param // shape [Out]
}

var _ Layer = (*Linear)(nil)

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

// Forward implements Layer. Output rows are sharded across workers; each
// row's dot product runs in the same ascending-index order as MatVec, so
// the result is bitwise-identical at every worker count.
func (l *Linear) Forward(x *tensor.Tensor) (*tensor.Tensor, Cache) {
	if x.Rank() != 1 || x.Dim(0) != l.In {
		panic(fmt.Sprintf("nn: Linear(%d→%d) got input shape %v", l.In, l.Out, x.Shape()))
	}
	workers := parallel.Workers()
	if workers <= 1 {
		y := l.W.Value.MatVec(x)
		y.AddInPlace(l.B.Value)
		return y, &linearCache{x: x.Clone()}
	}
	y := tensor.New(l.Out)
	yd, xd := y.Data(), x.Data()
	wd, bd := l.W.Value.Data(), l.B.Value.Data()
	parallel.ForN(workers, l.Out, func(_, os, oe int) {
		for o := os; o < oe; o++ {
			row := wd[o*l.In : (o+1)*l.In]
			s := 0.0
			for k, rv := range row {
				s += rv * xd[k]
			}
			yd[o] = s + bd[o]
		}
	})
	return y, &linearCache{x: x.Clone()}
}

// Backward implements Layer. With one worker it runs the reference scatter
// loop; with more it shards the weight/bias gradients over output rows
// (single writer per row) and gathers dx per input element in the same
// ascending-o order the scatter accumulates, keeping the result
// bitwise-identical (DESIGN.md §9). A frozen layer runs only the gather.
func (l *Linear) Backward(c Cache, gradOut *tensor.Tensor) *tensor.Tensor {
	lc := c.(*linearCache)
	// dW[o,i] += g[o] * x[i]; db[o] += g[o]; dx[i] = Σ_o W[o,i] g[o].
	g := gradOut.Data()
	x := lc.x.Data()
	wd := l.W.Value.Data()
	wg := l.W.gradData()
	bg := l.B.gradData()
	dx := tensor.New(l.In)
	dxd := dx.Data()
	workers := parallel.Workers()
	frozen := wg == nil
	if !frozen && workers <= 1 {
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
	if !frozen {
		parallel.ForN(workers, l.Out, func(_, os, oe int) {
			for o := os; o < oe; o++ {
				go_ := g[o]
				bg[o] += go_
				grow := wg[o*l.In : (o+1)*l.In]
				for i := 0; i < l.In; i++ {
					grow[i] += go_ * x[i]
				}
			}
		})
	}
	parallel.ForN(workers, l.In, func(_, is, ie int) {
		for i := is; i < ie; i++ {
			s := 0.0
			for o := 0; o < l.Out; o++ {
				s += wd[o*l.In+i] * g[o]
			}
			dxd[i] = s
		}
	})
	return dx
}

// Params implements Layer.
func (l *Linear) Params() []*Param { return []*Param{l.W, l.B} }
