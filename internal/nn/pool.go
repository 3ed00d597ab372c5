package nn

import (
	"fmt"
	"math"

	"duo/internal/tensor"
)

// MaxPool3D applies max pooling with kernel K and stride K (non-overlapping)
// over the [T,H,W] dimensions of a [C,T,H,W] input. Dimensions smaller than
// the kernel are pooled fully.
type MaxPool3D struct {
	KT, KH, KW int
}

type maxPoolCache struct {
	inShape []int
	argmax  []int // flat input index of each output element's max
}

func poolOut(in, k int) int {
	if in < k {
		return 1
	}
	return in / k
}

// window is the pooling kernel on input in ([C,T,H,W]), clipped to the
// input, and the output's [T,H,W].
func (l MaxPool3D) window(in []int) (k, o [3]int) {
	if len(in) != 4 {
		panic(fmt.Sprintf("nn: MaxPool3D got input shape %v", append([]int(nil), in...)))
	}
	k = [3]int{min(l.KT, in[1]), min(l.KH, in[2]), min(l.KW, in[3])}
	return k, [3]int{poolOut(in[1], k[0]), poolOut(in[2], k[1]), poolOut(in[3], k[2])}
}

// Forward implements Layer.
func (l MaxPool3D) Forward(x *tensor.Tensor) (*tensor.Tensor, Cache) { return forward(l, x) }

// maxPool fills dst with the maximum of every window k of src (shape in),
// the first one on a tie, and records its flat input index in arg unless
// arg is nil.
func maxPool(dst []float64, arg []int, src []float64, in []int, k, o [3]int) {
	C, H, W := in[0], in[2], in[3]
	kt, kh, kw := k[0], k[1], k[2]
	xsC, xsT, xsH := in[1]*H*W, H*W, W
	oi := 0
	for c := 0; c < C; c++ {
		for to := 0; to < o[0]; to++ {
			for ho := 0; ho < o[1]; ho++ {
				for wo := 0; wo < o[2]; wo++ {
					best := math.Inf(-1)
					bi := -1
					for dt := 0; dt < kt; dt++ {
						for dh := 0; dh < kh; dh++ {
							for dw := 0; dw < kw; dw++ {
								idx := c*xsC + (to*kt+dt)*xsT + (ho*kh+dh)*xsH + wo*kw + dw
								if src[idx] > best {
									best = src[idx]
									bi = idx
								}
							}
						}
					}
					dst[oi] = best
					if arg != nil {
						arg[oi] = bi
					}
					oi++
				}
			}
		}
	}
}

// Backward implements Layer.
func (l MaxPool3D) Backward(c Cache, gradOut *tensor.Tensor) *tensor.Tensor {
	mc := c.(*maxPoolCache)
	dx := tensor.New(mc.inShape...)
	dxd := dx.Data()
	for oi, g := range gradOut.Data() {
		dxd[mc.argmax[oi]] += g
	}
	return dx
}

// Params implements Layer.
func (MaxPool3D) Params() []*Param { return nil }

// AvgPoolTime averages the temporal (T) dimension of a [C,T,H,W] input with
// window/stride k, producing [C,T/k,H,W]. Used by the temporal-pyramid and
// slow-pathway models.
type AvgPoolTime struct{ K int }

type avgPoolTimeCache struct {
	inShape []int
	k       int
}

// window is the clipped window on input in ([C,T,H,W]) and the output's
// frame count.
func (l AvgPoolTime) window(in []int) (k, to int) {
	if len(in) != 4 {
		panic(fmt.Sprintf("nn: AvgPoolTime got input shape %v", append([]int(nil), in...)))
	}
	k = min(l.K, in[1])
	return k, poolOut(in[1], k)
}

// Forward implements Layer.
func (l AvgPoolTime) Forward(x *tensor.Tensor) (*tensor.Tensor, Cache) { return forward(l, x) }

// avgPoolTime adds into dst, zero on entry, the average of every k
// consecutive frames of src (shape in), to output frames.
func avgPoolTime(dst, src []float64, in []int, k, to int) {
	C, T, hw := in[0], in[1], in[2]*in[3]
	xsC, osC := T*hw, to*hw
	inv := 1 / float64(k)
	for c := 0; c < C; c++ {
		for t := 0; t < to; t++ {
			for dt := 0; dt < k; dt++ {
				src := src[c*xsC+(t*k+dt)*hw : c*xsC+(t*k+dt+1)*hw]
				dst := dst[c*osC+t*hw : c*osC+(t+1)*hw]
				for i, v := range src {
					dst[i] += v * inv
				}
			}
		}
	}
}

// Backward implements Layer.
func (l AvgPoolTime) Backward(c Cache, gradOut *tensor.Tensor) *tensor.Tensor {
	ac := c.(*avgPoolTimeCache)
	in := ac.inShape
	C, T, H, W := in[0], in[1], in[2], in[3]
	k := ac.k
	To := poolOut(T, k)
	dx := tensor.New(in...)
	dxd, gd := dx.Data(), gradOut.Data()
	xsC, xsT := T*H*W, H*W
	osC := To * H * W
	inv := 1 / float64(k)
	for c := 0; c < C; c++ {
		for to := 0; to < To; to++ {
			g := gd[c*osC+to*xsT : c*osC+(to+1)*xsT]
			for dt := 0; dt < k; dt++ {
				dst := dxd[c*xsC+(to*k+dt)*xsT : c*xsC+(to*k+dt+1)*xsT]
				for i, v := range g {
					dst[i] += v * inv
				}
			}
		}
	}
	return dx
}

// Params implements Layer.
func (AvgPoolTime) Params() []*Param { return nil }

// GlobalAvgPool averages away every dimension after the first, mapping
// [C, ...] to [C].
type GlobalAvgPool struct{}

type gapCache struct{ inShape []int }

// Forward implements Layer.
func (l GlobalAvgPool) Forward(x *tensor.Tensor) (*tensor.Tensor, Cache) { return forward(l, x) }

// globalAvg writes into dst[c] the mean of the c-th of len(dst) equal
// parts of src: their sum in ascending order over their count, as
// tensor.Mean computes it.
func globalAvg(dst, src []float64) {
	per := len(src) / len(dst)
	for c := range dst {
		s := 0.0
		for _, v := range src[c*per : (c+1)*per] {
			s += v
		}
		dst[c] = s / float64(per)
	}
}

// Backward implements Layer.
func (GlobalAvgPool) Backward(c Cache, gradOut *tensor.Tensor) *tensor.Tensor {
	gc := c.(*gapCache)
	dx := tensor.New(gc.inShape...)
	C := gc.inShape[0]
	per := dx.Len() / C
	inv := 1 / float64(per)
	for ch := 0; ch < C; ch++ {
		g := gradOut.At(ch) * inv
		dx.Slice(ch).Fill(g)
	}
	return dx
}

// Params implements Layer.
func (GlobalAvgPool) Params() []*Param { return nil }
