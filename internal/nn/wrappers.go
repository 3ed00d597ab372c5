package nn

import (
	"fmt"

	"duo/internal/tensor"
)

// SwapCT swaps the first two dimensions of a rank-4 tensor. It converts a
// video in [N, C, H, W] frame-major layout to the [C, T, H, W] channel-major
// layout that Conv3D expects (and back).
type SwapCT struct{}

// swapDims checks that in is rank 4 and returns it as A, B, H, W.
func swapDims(in []int) (a, b, h, w int) {
	if len(in) != 4 {
		panic(fmt.Sprintf("nn: SwapCT got input shape %v", append([]int(nil), in...)))
	}
	return in[0], in[1], in[2], in[3]
}

// swapInto writes src, an [A, B, …] tensor with hw elements per (a, b)
// plane, into dst as [B, A, …].
func swapInto(dst, src []float64, a, b, hw int) {
	for i := 0; i < a; i++ {
		for j := 0; j < b; j++ {
			copy(dst[(j*a+i)*hw:(j*a+i+1)*hw], src[(i*b+j)*hw:(i*b+j+1)*hw])
		}
	}
}

// Forward implements Layer.
func (l SwapCT) Forward(x *tensor.Tensor) (*tensor.Tensor, Cache) { return forward(l, x) }

// Backward implements Layer.
func (SwapCT) Backward(_ Cache, gradOut *tensor.Tensor) *tensor.Tensor {
	var buf [maxStackRank]int
	A, B, H, W := swapDims(shapeOf(gradOut, buf[:0]))
	dx := tensor.New(B, A, H, W)
	swapInto(dx.Data(), gradOut.Data(), A, B, H*W)
	return dx
}

// Params implements Layer.
func (SwapCT) Params() []*Param { return nil }

// TimeDistributed applies Inner independently to every slice along the
// first dimension and stacks the results. With [N, C, H, W] video input and
// a Conv2D inner layer it implements per-frame 2-D convolution.
type TimeDistributed struct{ Inner Layer }

type timeDistCache struct {
	caches []Cache
	shape  []int
}

// Forward implements Layer.
func (l *TimeDistributed) Forward(x *tensor.Tensor) (*tensor.Tensor, Cache) { return forward(l, x) }

// Backward implements Layer.
func (l *TimeDistributed) Backward(c Cache, gradOut *tensor.Tensor) *tensor.Tensor {
	return l.backwardFrames(c, gradOut, nil)
}

// backwardFrames is Backward on the slices keep marks (all of them when keep
// is nil); the other slices of dx stay zero.
func (l *TimeDistributed) backwardFrames(c Cache, gradOut *tensor.Tensor, keep []bool) *tensor.Tensor {
	tc := c.(*timeDistCache)
	if keep != nil && len(keep) != len(tc.caches) {
		panic(fmt.Sprintf("nn: TimeDistributed.backwardFrames: %d frame flags for %d slices", len(keep), len(tc.caches)))
	}
	dx := tensor.New(tc.shape...)
	for i, ci := range tc.caches {
		if keep == nil || keep[i] {
			dx.Slice(i).CopyFrom(l.Inner.Backward(ci, gradOut.Slice(i)))
		}
	}
	return dx
}

// Params implements Layer.
func (l *TimeDistributed) Params() []*Param { return l.Inner.Params() }

// Residual computes Inner(x) + Proj(x). Proj may be nil, in which case the
// skip connection is the identity and Inner's output shape must match x.
type Residual struct {
	Inner Layer
	Proj  Layer
}

type residualCache struct {
	inner Cache
	proj  Cache
}

// Forward implements Layer.
func (l *Residual) Forward(x *tensor.Tensor) (*tensor.Tensor, Cache) { return forward(l, x) }

// Backward implements Layer.
func (l *Residual) Backward(c Cache, gradOut *tensor.Tensor) *tensor.Tensor {
	rc := c.(*residualCache)
	dx := l.Inner.Backward(rc.inner, gradOut)
	if l.Proj != nil {
		dx = dx.Add(l.Proj.Backward(rc.proj, gradOut))
	} else {
		dx = dx.Add(gradOut)
	}
	return dx
}

// Params implements Layer.
func (l *Residual) Params() []*Param {
	ps := l.Inner.Params()
	if l.Proj != nil {
		ps = append(ps, l.Proj.Params()...)
	}
	return ps
}

// Parallel feeds the same input to every branch and concatenates their
// rank-1 outputs. It implements the fusion stage of the two-pathway
// (SlowFast) and temporal-pyramid (TPN) models.
type Parallel struct{ Branches []Layer }

type parallelCache struct {
	caches []Cache
	sizes  []int
}

// Forward implements Layer.
func (l *Parallel) Forward(x *tensor.Tensor) (*tensor.Tensor, Cache) { return forward(l, x) }

// Backward implements Layer.
func (l *Parallel) Backward(c Cache, gradOut *tensor.Tensor) *tensor.Tensor {
	pc := c.(*parallelCache)
	var dx *tensor.Tensor
	off := 0
	for i, br := range l.Branches {
		g := tensor.From(gradOut.Data()[off:off+pc.sizes[i]], pc.sizes[i])
		off += pc.sizes[i]
		di := br.Backward(pc.caches[i], g)
		if dx == nil {
			dx = di
		} else {
			dx.AddInPlace(di)
		}
	}
	return dx
}

// Params implements Layer.
func (l *Parallel) Params() []*Param {
	var ps []*Param
	for _, br := range l.Branches {
		ps = append(ps, br.Params()...)
	}
	return ps
}

// SubsampleTime keeps every K-th slice along the first dimension of a video
// tensor ([N, C, H, W] → [ceil(N/K), C, H, W]). The slow pathway of the
// SlowFast analogue uses it to thin the frame rate.
type SubsampleTime struct{ K int }

type subsampleCache struct {
	inShape []int
	kept    []int
}

// Forward implements Layer.
func (l SubsampleTime) Forward(x *tensor.Tensor) (*tensor.Tensor, Cache) { return forward(l, x) }

// subsample copies slices 0, k, 2k, … of src's n slices into dst, one
// after another.
func subsample(dst, src []float64, n, k int) {
	per := len(src) / n
	for i, j := 0, 0; i < n; i, j = i+k, j+1 {
		copy(dst[j*per:(j+1)*per], src[i*per:(i+1)*per])
	}
}

// Backward implements Layer.
func (l SubsampleTime) Backward(c Cache, gradOut *tensor.Tensor) *tensor.Tensor {
	sc := c.(*subsampleCache)
	dx := tensor.New(sc.inShape...)
	for j, i := range sc.kept {
		dx.Slice(i).CopyFrom(gradOut.Slice(j))
	}
	return dx
}

// Params implements Layer.
func (SubsampleTime) Params() []*Param { return nil }
