package nn

import (
	"fmt"

	"duo/internal/tensor"
)

// BackwardFrames is l.Backward(c, gradOut) for a caller that reads the
// gradient of l's [N, …] input on the frames keep marks only (one entry per
// frame): it fills dx on those frames, with the bits Backward gives them,
// and leaves zero on the others. The frames it skips cost nothing in the
// layers at the input end.
//
// Those layers are the only ones that can skip a frame: the first layer
// that mixes frames needs its whole output gradient. So only two input
// ends, with frozen weights, take the restricted path:
//   - Scale → SwapCT → Conv3D: the convolution fills the dx rows of the kept
//     frames only, and Scale and SwapCT run on those frames in one pass;
//   - Scale → TimeDistributed: the inner layer runs on the kept frames only.
//
// A Sequential whose first layer is a Sequential is searched through that
// layer. For any other graph BackwardFrames computes nothing and reports
// false; the caller then runs Backward.
func BackwardFrames(l Layer, c Cache, gradOut *tensor.Tensor, keep []bool) (*tensor.Tensor, bool) {
	s, ok := l.(*Sequential)
	if !ok || inputEnd(s) < 0 {
		return nil, false
	}
	return s.backwardFrames(c, gradOut, keep), true
}

// inputEnd returns how many of s's leading layers BackwardFrames restricts
// as one input end: 1 when the first layer is a Sequential with an input
// end, 2 for Scale → TimeDistributed, 3 for Scale → SwapCT → Conv3D, and
// −1 when s has none.
func inputEnd(s *Sequential) int {
	ls := s.Layers
	if len(ls) == 0 {
		return -1
	}
	if inner, ok := ls[0].(*Sequential); ok {
		if inputEnd(inner) < 0 {
			return -1
		}
		return 1
	}
	if _, ok := ls[0].(Scale); !ok || len(ls) < 2 {
		return -1
	}
	if td, ok := ls[1].(*TimeDistributed); ok && allFrozen(td.Inner.Params()) {
		return 2
	}
	if len(ls) < 3 {
		return -1
	}
	_, swap := ls[1].(SwapCT)
	conv, ok := ls[2].(*Conv3D)
	if swap && ok && conv.W.Frozen() && conv.B.Frozen() {
		return 3
	}
	return -1
}

func allFrozen(ps []*Param) bool {
	for _, p := range ps {
		if !p.Frozen() {
			return false
		}
	}
	return true
}

// backwardFrames runs the layers after s's input end through Backward and
// the input end restricted to the kept frames.
func (s *Sequential) backwardFrames(c Cache, gradOut *tensor.Tensor, keep []bool) *tensor.Tensor {
	sc := c.(*seqCache)
	n := inputEnd(s)
	for i := len(s.Layers) - 1; i >= n; i-- {
		gradOut = s.Layers[i].Backward(sc.caches[i], gradOut)
	}
	if n == 1 {
		return s.Layers[0].(*Sequential).backwardFrames(sc.caches[0], gradOut, keep)
	}
	f := s.Layers[0].(Scale).Factor
	if n == 3 {
		g := s.Layers[2].(*Conv3D).backwardFrames(sc.caches[2], gradOut, keep)
		return swapScaleFrames(g, f, keep)
	}
	dx := s.Layers[1].(*TimeDistributed).backwardFrames(sc.caches[1], gradOut, keep)
	for t, k := range keep {
		if k {
			dx.Slice(t).ScaleInPlace(f)
		}
	}
	return dx
}

// swapScaleFrames is Scale{f}.Backward(SwapCT.Backward(g)) on the frames
// keep marks, zero on the others, in one pass: dx[t, c] = g[c, t]·f.
func swapScaleFrames(g *tensor.Tensor, f float64, keep []bool) *tensor.Tensor {
	C, T, H, W := g.Dim(0), g.Dim(1), g.Dim(2), g.Dim(3)
	dx := tensor.New(T, C, H, W)
	gd, dd := g.Data(), dx.Data()
	hw := H * W
	for t, k := range keep {
		if !k {
			continue
		}
		for c := 0; c < C; c++ {
			dst := dd[(t*C+c)*hw:][:hw]
			for i, v := range gd[(c*T+t)*hw:][:hw] {
				dst[i] = v * f
			}
		}
	}
	return dx
}

// backwardFrames is a frozen Conv3D's Backward on the input frames (the T
// axis of [C, T, H, W]) keep marks: their dx rows get Backward's bits, the
// other rows stay zero.
func (l *Conv3D) backwardFrames(c Cache, gradOut *tensor.Tensor, keep []bool) *tensor.Tensor {
	x := c.(*convCache).x
	d := l.dims(x)
	if len(keep) != d.T {
		panic(fmt.Sprintf("nn: Conv3D.backwardFrames: %d frame flags for %d frames", len(keep), d.T))
	}
	dx := tensor.New(d.C, d.T, d.H, d.W)
	d.gradInput(l.W.Value.Data(), gradOut.Data(), dx.Data(), keep)
	return dx
}
