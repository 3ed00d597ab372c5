package nn

import (
	"fmt"
	"math/rand"

	"duo/internal/tensor"
)

// Conv2D is a 2-D convolution over [C, H, W] inputs (channel-first).
// Weights have shape [F, C, KH, KW]; zero padding.
type Conv2D struct {
	InC, OutC int
	KH, KW    int
	SH, SW    int
	PH, PW    int
	W         *Param
	B         *Param
}

// NewConv2D returns a He-initialized 2-D convolution with square kernel k,
// stride s, and "same"-style padding k/2.
func NewConv2D(rng *rand.Rand, inC, outC, k, s int) *Conv2D {
	w := tensor.New(outC, inC, k, k)
	HeInit(rng, w, inC*k*k)
	return &Conv2D{
		InC: inC, OutC: outC,
		KH: k, KW: k, SH: s, SW: s, PH: k / 2, PW: k / 2,
		W: NewParam(fmt.Sprintf("conv2d%dx%d.W", outC, inC), w),
		B: NewParam(fmt.Sprintf("conv2d%dx%d.B", outC, inC), tensor.New(outC)),
	}
}

// OutShape returns the output shape for an input of shape [C,H,W].
func (l *Conv2D) OutShape(in []int) []int {
	return []int{l.OutC, outDim(in[1], l.KH, l.SH, l.PH), outDim(in[2], l.KW, l.SW, l.PW)}
}

// geometry views the layer, on an input of shape in ([C,H,W]), as a
// one-frame 3-D convolution with a 1×KH×KW kernel. It panics on a shape the
// layer cannot take.
func (l *Conv2D) geometry(in []int) convDims {
	if len(in) != 3 || in[0] != l.InC {
		panic(fmt.Sprintf("nn: Conv2D(in=%d) got input shape %v", l.InC, append([]int(nil), in...)))
	}
	h, w := in[1], in[2]
	d := convDims{
		C: l.InC, F: l.OutC,
		T: 1, H: h, W: w,
		KT: 1, KH: l.KH, KW: l.KW,
		ST: 1, SH: l.SH, SW: l.SW,
		PH: l.PH, PW: l.PW,
		To: 1, Ho: outDim(h, l.KH, l.SH, l.PH), Wo: outDim(w, l.KW, l.SW, l.PW),
	}
	if d.Ho <= 0 || d.Wo <= 0 {
		panic(fmt.Sprintf("nn: Conv2D produces empty output for input %v", append([]int(nil), in...)))
	}
	return d
}

// dims is the layer's geometry on input x.
func (l *Conv2D) dims(x *tensor.Tensor) convDims {
	var buf [maxStackRank]int
	return l.geometry(shapeOf(x, buf[:0]))
}

// Forward implements Layer. The result is bitwise-identical at every worker
// count (see convDims).
func (l *Conv2D) Forward(x *tensor.Tensor) (*tensor.Tensor, Cache) { return forward(l, x) }

// Backward implements Layer: W.Grad and B.Grad accumulate unless frozen, dx
// is returned, all bitwise-identical at every worker count (see convDims).
func (l *Conv2D) Backward(c Cache, gradOut *tensor.Tensor) *tensor.Tensor {
	x := c.(*convCache).x
	d := l.dims(x)
	dx := tensor.New(d.C, d.H, d.W)
	d.backward(x.Data(), l.W.Value.Data(), gradOut.Data(), dx.Data(), l.W.gradData(), l.B.gradData())
	return dx
}

// Params implements Layer.
func (l *Conv2D) Params() []*Param { return []*Param{l.W, l.B} }
