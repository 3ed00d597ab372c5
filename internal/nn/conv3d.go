package nn

import (
	"fmt"
	"math/rand"

	"duo/internal/tensor"
)

// Conv3D is a 3-D convolution over [C, T, H, W] inputs (channel-first,
// T = temporal depth). Weights have shape [F, C, KT, KH, KW]; zero padding.
type Conv3D struct {
	InC, OutC  int
	KT, KH, KW int
	ST, SH, SW int // strides
	PT, PH, PW int // zero padding
	W          *Param
	B          *Param
}

// NewConv3D returns a He-initialized 3-D convolution with cubic kernel k,
// stride s in every dimension, and "same"-style padding k/2.
func NewConv3D(rng *rand.Rand, inC, outC, k, s int) *Conv3D {
	return NewConv3DFull(rng, inC, outC, [3]int{k, k, k}, [3]int{s, s, s}, [3]int{k / 2, k / 2, k / 2})
}

// NewConv3DFull returns a He-initialized 3-D convolution with explicit
// per-dimension kernel, stride, and padding.
func NewConv3DFull(rng *rand.Rand, inC, outC int, kernel, stride, pad [3]int) *Conv3D {
	w := tensor.New(outC, inC, kernel[0], kernel[1], kernel[2])
	HeInit(rng, w, inC*kernel[0]*kernel[1]*kernel[2])
	return &Conv3D{
		InC: inC, OutC: outC,
		KT: kernel[0], KH: kernel[1], KW: kernel[2],
		ST: stride[0], SH: stride[1], SW: stride[2],
		PT: pad[0], PH: pad[1], PW: pad[2],
		W: NewParam(fmt.Sprintf("conv3d%dx%d.W", outC, inC), w),
		B: NewParam(fmt.Sprintf("conv3d%dx%d.B", outC, inC), tensor.New(outC)),
	}
}

// OutShape returns the output shape for an input of shape [C,T,H,W].
func (l *Conv3D) OutShape(in []int) []int {
	return []int{l.OutC, outDim(in[1], l.KT, l.ST, l.PT), outDim(in[2], l.KH, l.SH, l.PH), outDim(in[3], l.KW, l.SW, l.PW)}
}

// geometry is the layer's geometry on an input of shape in ([C,T,H,W]). It
// panics on a shape the layer cannot take.
func (l *Conv3D) geometry(in []int) convDims {
	if len(in) != 4 || in[0] != l.InC {
		panic(fmt.Sprintf("nn: Conv3D(in=%d) got input shape %v", l.InC, append([]int(nil), in...)))
	}
	t, h, w := in[1], in[2], in[3]
	d := convDims{
		C: l.InC, F: l.OutC,
		T: t, H: h, W: w,
		KT: l.KT, KH: l.KH, KW: l.KW,
		ST: l.ST, SH: l.SH, SW: l.SW,
		PT: l.PT, PH: l.PH, PW: l.PW,
		To: outDim(t, l.KT, l.ST, l.PT), Ho: outDim(h, l.KH, l.SH, l.PH), Wo: outDim(w, l.KW, l.SW, l.PW),
	}
	if d.To <= 0 || d.Ho <= 0 || d.Wo <= 0 {
		panic(fmt.Sprintf("nn: Conv3D produces empty output for input %v", append([]int(nil), in...)))
	}
	return d
}

// dims is the layer's geometry on input x.
func (l *Conv3D) dims(x *tensor.Tensor) convDims {
	var buf [maxStackRank]int
	return l.geometry(shapeOf(x, buf[:0]))
}

// Forward implements Layer. The result is bitwise-identical at every worker
// count (see convDims).
func (l *Conv3D) Forward(x *tensor.Tensor) (*tensor.Tensor, Cache) { return forward(l, x) }

// Backward implements Layer: W.Grad and B.Grad accumulate unless frozen, dx
// is returned, all bitwise-identical at every worker count (see convDims).
func (l *Conv3D) Backward(c Cache, gradOut *tensor.Tensor) *tensor.Tensor {
	x := c.(*convCache).x
	d := l.dims(x)
	dx := tensor.New(d.C, d.T, d.H, d.W)
	d.backward(x.Data(), l.W.Value.Data(), gradOut.Data(), dx.Data(), l.W.gradData(), l.B.gradData())
	return dx
}

// Params implements Layer.
func (l *Conv3D) Params() []*Param { return []*Param{l.W, l.B} }
