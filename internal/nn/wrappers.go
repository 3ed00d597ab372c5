package nn

import (
	"fmt"

	"duo/internal/tensor"
)

// SwapCT swaps the first two dimensions of a rank-4 tensor. It converts a
// video in [N, C, H, W] frame-major layout to the [C, T, H, W] channel-major
// layout that Conv3D expects (and back).
type SwapCT struct{}

var _ Layer = SwapCT{}

func swap01(x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 4 {
		panic(fmt.Sprintf("nn: SwapCT got input shape %v", x.Shape()))
	}
	s := x.Shape()
	A, B, H, W := s[0], s[1], s[2], s[3]
	out := tensor.New(B, A, H, W)
	xd, od := x.Data(), out.Data()
	hw := H * W
	for a := 0; a < A; a++ {
		for b := 0; b < B; b++ {
			copy(od[(b*A+a)*hw:(b*A+a+1)*hw], xd[(a*B+b)*hw:(a*B+b+1)*hw])
		}
	}
	return out
}

// Forward implements Layer.
func (SwapCT) Forward(x *tensor.Tensor) (*tensor.Tensor, Cache) { return swap01(x), nil }

// Backward implements Layer.
func (SwapCT) Backward(_ Cache, gradOut *tensor.Tensor) *tensor.Tensor { return swap01(gradOut) }

// Params implements Layer.
func (SwapCT) Params() []*Param { return nil }

// TimeDistributed applies Inner independently to every slice along the
// first dimension and stacks the results. With [N, C, H, W] video input and
// a Conv2D inner layer it implements per-frame 2-D convolution.
type TimeDistributed struct{ Inner Layer }

var _ Layer = (*TimeDistributed)(nil)

type timeDistCache struct {
	caches []Cache
	shape  []int
}

// Forward implements Layer.
func (l *TimeDistributed) Forward(x *tensor.Tensor) (*tensor.Tensor, Cache) {
	if x.Rank() < 2 {
		panic(fmt.Sprintf("nn: TimeDistributed got input shape %v", x.Shape()))
	}
	n := x.Dim(0)
	caches := make([]Cache, n)
	var out *tensor.Tensor
	for i := 0; i < n; i++ {
		y, c := l.Inner.Forward(x.Slice(i))
		caches[i] = c
		if out == nil {
			out = tensor.New(append([]int{n}, y.Shape()...)...)
		}
		out.Slice(i).CopyFrom(y)
	}
	return out, &timeDistCache{caches: caches, shape: x.Shape()}
}

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

var _ Layer = (*Residual)(nil)

type residualCache struct {
	inner Cache
	proj  Cache
}

// Forward implements Layer.
func (l *Residual) Forward(x *tensor.Tensor) (*tensor.Tensor, Cache) {
	y, ic := l.Inner.Forward(x)
	var pc Cache
	skip := x
	if l.Proj != nil {
		skip, pc = l.Proj.Forward(x)
	}
	return y.Add(skip), &residualCache{inner: ic, proj: pc}
}

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

var _ Layer = (*Parallel)(nil)

type parallelCache struct {
	caches []Cache
	sizes  []int
}

// Forward implements Layer.
func (l *Parallel) Forward(x *tensor.Tensor) (*tensor.Tensor, Cache) {
	caches := make([]Cache, len(l.Branches))
	sizes := make([]int, len(l.Branches))
	var parts []*tensor.Tensor
	total := 0
	for i, br := range l.Branches {
		y, c := br.Forward(x)
		if y.Rank() != 1 {
			panic(fmt.Sprintf("nn: Parallel branch %d output rank %d, want 1", i, y.Rank()))
		}
		caches[i] = c
		sizes[i] = y.Len()
		total += y.Len()
		parts = append(parts, y)
	}
	out := tensor.New(total)
	off := 0
	for _, p := range parts {
		copy(out.Data()[off:off+p.Len()], p.Data())
		off += p.Len()
	}
	return out, &parallelCache{caches: caches, sizes: sizes}
}

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

var _ Layer = SubsampleTime{}

type subsampleCache struct {
	inShape []int
	kept    []int
}

// Forward implements Layer.
func (l SubsampleTime) Forward(x *tensor.Tensor) (*tensor.Tensor, Cache) {
	if x.Rank() < 2 {
		panic(fmt.Sprintf("nn: SubsampleTime got input shape %v", x.Shape()))
	}
	n := x.Dim(0)
	k := l.K
	if k < 1 {
		k = 1
	}
	var kept []int
	for i := 0; i < n; i += k {
		kept = append(kept, i)
	}
	rest := x.Shape()[1:]
	out := tensor.New(append([]int{len(kept)}, rest...)...)
	for j, i := range kept {
		out.Slice(j).CopyFrom(x.Slice(i))
	}
	return out, &subsampleCache{inShape: x.Shape(), kept: kept}
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
