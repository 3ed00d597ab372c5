package nn

import (
	"fmt"
	"math"

	"duo/internal/tensor"
)

// ChannelNorm normalizes each channel's plane (all dimensions after the
// first) to zero mean and unit variance, then applies a learnable
// per-channel gain and bias. It is the batch-free normalization suited to
// this repository's sample-at-a-time training (batch statistics would be
// degenerate with batch size 1).
type ChannelNorm struct {
	C    int
	Eps  float64
	Gain *Param // [C], initialized to 1
	Bias *Param // [C], initialized to 0
}

var _ Layer = (*ChannelNorm)(nil)

// NewChannelNorm returns a ChannelNorm over c channels.
func NewChannelNorm(c int) *ChannelNorm {
	gain := tensor.New(c)
	gain.Fill(1)
	return &ChannelNorm{
		C:    c,
		Eps:  1e-5,
		Gain: NewParam(fmt.Sprintf("channelnorm%d.gain", c), gain),
		Bias: NewParam(fmt.Sprintf("channelnorm%d.bias", c), tensor.New(c)),
	}
}

type channelNormCache struct {
	inShape []int
	xhat    *tensor.Tensor // normalized input
	invStd  []float64      // per channel
}

// Forward implements Layer.
func (l *ChannelNorm) Forward(x *tensor.Tensor) (*tensor.Tensor, Cache) {
	if x.Rank() < 2 || x.Dim(0) != l.C {
		panic(fmt.Sprintf("nn: ChannelNorm(%d) got input shape %v", l.C, x.Shape()))
	}
	out := x.Clone()
	xhat := tensor.New(x.Shape()...)
	invStd := make([]float64, l.C)
	g, b := l.Gain.Value.Data(), l.Bias.Value.Data()
	for c := 0; c < l.C; c++ {
		plane := x.Slice(c)
		mu := plane.Mean()
		variance := 0.0
		for _, v := range plane.Data() {
			d := v - mu
			variance += d * d
		}
		variance /= float64(plane.Len())
		inv := 1 / math.Sqrt(variance+l.Eps)
		invStd[c] = inv
		xh := xhat.Slice(c).Data()
		dst := out.Slice(c).Data()
		for i, v := range plane.Data() {
			xh[i] = (v - mu) * inv
			dst[i] = g[c]*xh[i] + b[c]
		}
	}
	return out, &channelNormCache{inShape: x.Shape(), xhat: xhat, invStd: invStd}
}

// Backward implements Layer. A frozen layer writes no Gain or Bias
// gradient.
func (l *ChannelNorm) Backward(cacheI Cache, gradOut *tensor.Tensor) *tensor.Tensor {
	cache := cacheI.(*channelNormCache)
	dx := tensor.New(cache.inShape...)
	g := l.Gain.Value.Data()
	gg, gb := l.Gain.gradData(), l.Bias.gradData()
	for c := 0; c < l.C; c++ {
		dy := gradOut.Slice(c).Data()
		xh := cache.xhat.Slice(c).Data()
		n := float64(len(dy))
		var sumDy, sumDyXh float64
		for i, d := range dy {
			sumDy += d
			sumDyXh += d * xh[i]
		}
		if gg != nil {
			for i, d := range dy {
				gg[c] += d * xh[i]
				gb[c] += d
			}
		}
		// dL/dx = g·invStd · (dy − mean(dy) − x̂·mean(dy·x̂)).
		k := g[c] * cache.invStd[c]
		meanDy := sumDy / n
		meanDyXh := sumDyXh / n
		dst := dx.Slice(c).Data()
		for i, d := range dy {
			dst[i] = k * (d - meanDy - xh[i]*meanDyXh)
		}
	}
	return dx
}

// Params implements Layer.
func (l *ChannelNorm) Params() []*Param { return []*Param{l.Gain, l.Bias} }
