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

// workers is the fan-out of one pass: the active worker count when the
// layer's In·Out multiply-accumulates reach parallelThreshold, else 1.
func (l *Linear) workers() int {
	if l.In*l.Out < parallelThreshold {
		return 1
	}
	return parallel.Workers()
}

func (l *Linear) checkInput(in []int) {
	if len(in) != 1 || in[0] != l.In {
		panic(fmt.Sprintf("nn: Linear(%d→%d) got input shape %v", l.In, l.Out, append([]int(nil), in...)))
	}
}

// Forward implements Layer. Output rows are sharded across workers (see
// affine), so the result is bitwise-identical at every worker count.
func (l *Linear) Forward(x *tensor.Tensor) (*tensor.Tensor, Cache) {
	var buf [maxStackRank]int
	l.checkInput(shapeOf(x, buf[:0]))
	y := tensor.New(l.Out)
	yd, xd := y.Data(), x.Data()
	if workers := l.workers(); workers == 1 {
		l.affine(yd, xd, 0, l.Out)
	} else {
		parallel.ForN(workers, l.Out, func(_, os, oe int) {
			l.affine(yd, xd, os, oe)
		})
	}
	return y, &linearCache{x: x.Clone()}
}

// affine fills the outputs [os, oe) of y = W·x + b: each is its row's dot
// product in ascending index order, plus the bias.
func (l *Linear) affine(y, x []float64, os, oe int) {
	wd, bd := l.W.Value.Data(), l.B.Value.Data()
	for o := os; o < oe; o++ {
		s := 0.0
		for k, rv := range wd[o*l.In : (o+1)*l.In] {
			s += rv * x[k]
		}
		y[o] = s + bd[o]
	}
}

// Backward implements Layer. With one worker (a layer under
// parallelThreshold always has one) it runs the reference scatter loop;
// with more it shards the weight/bias gradients over output rows
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
	workers := l.workers()
	frozen := wg == nil
	if !frozen && workers == 1 {
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
