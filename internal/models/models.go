// Package models builds the video feature extractors used as victims and
// surrogates: scaled-down analogues of I3D, TPN, SlowFast, ResNet34 (victim
// side) and C3D, ResNet18 (surrogate side). Each keeps the distinguishing
// structure of its namesake — see DESIGN.md §2 for the substitution
// rationale.
package models

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"duo/internal/nn"
	"duo/internal/telemetry"
	"duo/internal/tensor"
	"duo/internal/video"
)

// Geometry is the video clip geometry a model is built for.
type Geometry struct {
	Frames, Channels, Height, Width int
}

// GeometryOf returns the geometry of a video.
func GeometryOf(v *video.Video) Geometry {
	return Geometry{Frames: v.Frames(), Channels: v.Channels(), Height: v.Height(), Width: v.Width()}
}

// Model is a differentiable video → feature-vector map.
type Model interface {
	// Name returns the architecture name as used in the paper's tables.
	Name() string
	// FeatureDim returns the output embedding dimension.
	FeatureDim() int
	// Forward maps an [N,C,H,W] video tensor to a [FeatureDim] embedding.
	Forward(x *tensor.Tensor) (*tensor.Tensor, nn.Cache)
	// Backward propagates an embedding gradient back to the input pixels,
	// accumulating parameter gradients along the way unless the model is
	// frozen (see Freeze).
	Backward(c nn.Cache, grad *tensor.Tensor) *tensor.Tensor
	// Params returns all trainable parameters.
	Params() []*nn.Param
}

// netModel wraps an nn.Layer network as a Model.
type netModel struct {
	name string
	dim  int
	net  nn.Layer
}

var _ Model = (*netModel)(nil)

func (m *netModel) Name() string        { return m.name }
func (m *netModel) FeatureDim() int     { return m.dim }
func (m *netModel) Params() []*nn.Param { return m.net.Params() }

func (m *netModel) Forward(x *tensor.Tensor) (*tensor.Tensor, nn.Cache) {
	return m.net.Forward(x)
}

func (m *netModel) Backward(c nn.Cache, grad *tensor.Tensor) *tensor.Tensor {
	return m.net.Backward(c, grad)
}

// BackwardFrames is m.Backward(c, grad) for a caller that reads the input
// gradient on the frames keep marks only (one entry per frame; nil marks
// every frame). On those frames dx carries Backward's bits. For a model
// built by this package the other frames are zero, and a frozen C3D, I3D
// or ResNet never computes them (see nn.BackwardFrames). Any other Model,
// a decorator embedding one of ours included, runs its own Backward, whose
// dx is complete.
func BackwardFrames(m Model, c nn.Cache, grad *tensor.Tensor, keep []bool) *tensor.Tensor {
	nm, ok := m.(*netModel)
	if !ok || keep == nil {
		return m.Backward(c, grad)
	}
	if dx, ok := nn.BackwardFrames(nm.net, c, grad, keep); ok {
		return dx
	}
	dx := nm.net.Backward(c, grad)
	dd := dx.Data()
	per := len(dd) / len(keep)
	for t, k := range keep {
		if !k {
			clear(dd[t*per : (t+1)*per])
		}
	}
	return dx
}

// Instrument returns a model whose layer graph records per-layer
// forward/backward wall times into r under "model.<name>"; a nil registry
// returns m unchanged. The instrumented model shares the original's
// parameters and computes bitwise-identical embeddings and gradients (see
// nn.Instrument), so it can replace the original anywhere.
func Instrument(m Model, r *telemetry.Registry) Model {
	nm, ok := m.(*netModel)
	if !ok || r == nil {
		return m
	}
	return &netModel{name: nm.name, dim: nm.dim, net: nn.Instrument(nm.net, r, "model."+nm.name)}
}

// ErrFrozen is returned by the training entry points for a frozen model.
var ErrFrozen = errors.New("models: model is frozen")

// Freeze marks every parameter of m frozen (a nil Grad, see nn.Param): a
// model that is done training keeps backpropagating to its input pixels,
// with the same bits, but no longer computes or stores weight gradients,
// so goroutines can share it. A frozen model cannot be trained again.
func Freeze(m Model) {
	for _, p := range m.Params() {
		p.Grad = nil
	}
}

// Frozen reports whether any parameter of m is frozen.
func Frozen(m Model) bool {
	for _, p := range m.Params() {
		if p.Frozen() {
			return true
		}
	}
	return false
}

// Embed returns m's embedding of v, with the bits of m.Forward. For a model
// this package built it runs nn.Infer, which builds no cache and keeps its
// activations in a pooled arena; any other Model, a decorator embedding one
// of ours included, runs its own Forward. The result is always a fresh
// tensor the caller may keep.
func Embed(m Model, v *video.Video) *tensor.Tensor {
	if nm, ok := m.(*netModel); ok {
		return nn.Infer(nm.net, v.Data)
	}
	e, _ := m.Forward(v.Data)
	return e
}

// pixelScale normalizes [0,255] pixels to ≈[0,1] at model entry.
const pixelScale = 1.0 / video.PixelMax

// width is the base channel width of the scaled-down backbones.
const width = 6

// probeDim runs a dummy forward to determine the flattened feature size of
// a partial network, so head layers can be sized without hand-computing
// conv arithmetic.
func probeDim(net nn.Layer, g Geometry) int {
	y, _ := net.Forward(tensor.New(g.Frames, g.Channels, g.Height, g.Width))
	return y.Len()
}

// NewC3D builds the C3D analogue: plain stacked 3-D convolutions
// (Tran et al., ICCV'15). It is the paper's default surrogate backbone.
func NewC3D(rng *rand.Rand, g Geometry, featDim int) Model {
	trunk := nn.NewSequential(
		nn.Scale{Factor: pixelScale},
		nn.SwapCT{},
		nn.NewConv3DFull(rng, g.Channels, width, [3]int{3, 3, 3}, [3]int{1, 2, 2}, [3]int{1, 1, 1}),
		nn.ReLU{},
		nn.NewConv3D(rng, width, 2*width, 3, 2),
		nn.ReLU{},
		nn.GlobalAvgPool{},
	)
	head := nn.NewLinear(rng, probeDim(trunk, g), featDim)
	return &netModel{name: "C3D", dim: featDim, net: nn.NewSequential(trunk, head)}
}

// NewI3D builds the I3D analogue: inflated 3-D convolutions with an early
// max-pool stage (Carreira & Zisserman, CVPR'17).
func NewI3D(rng *rand.Rand, g Geometry, featDim int) Model {
	trunk := nn.NewSequential(
		nn.Scale{Factor: pixelScale},
		nn.SwapCT{},
		nn.NewConv3DFull(rng, g.Channels, width, [3]int{3, 3, 3}, [3]int{1, 2, 2}, [3]int{1, 1, 1}),
		nn.ReLU{},
		nn.MaxPool3D{KT: 1, KH: 2, KW: 2},
		nn.NewConv3DFull(rng, width, 2*width, [3]int{3, 3, 3}, [3]int{2, 1, 1}, [3]int{1, 1, 1}),
		nn.ReLU{},
		nn.GlobalAvgPool{},
	)
	head := nn.NewLinear(rng, probeDim(trunk, g), featDim)
	return &netModel{name: "I3D", dim: featDim, net: nn.NewSequential(trunk, head)}
}

// NewTPN builds the TPN analogue: a temporal pyramid of parallel branches
// processing the clip at temporal rates 1, 2, and 4 (Yang et al., CVPR'20).
func NewTPN(rng *rand.Rand, g Geometry, featDim int) Model {
	branch := func(rate int) nn.Layer {
		return nn.NewSequential(
			nn.SwapCT{},
			nn.AvgPoolTime{K: rate},
			nn.NewConv3DFull(rng, g.Channels, width, [3]int{3, 3, 3}, [3]int{1, 2, 2}, [3]int{1, 1, 1}),
			nn.ReLU{},
			nn.GlobalAvgPool{},
		)
	}
	trunk := nn.NewSequential(
		nn.Scale{Factor: pixelScale},
		&nn.Parallel{Branches: []nn.Layer{branch(1), branch(2), branch(4)}},
	)
	head := nn.NewLinear(rng, probeDim(trunk, g), featDim)
	return &netModel{name: "TPN", dim: featDim, net: nn.NewSequential(trunk, head)}
}

// NewSlowFast builds the SlowFast analogue: a slow pathway over subsampled
// frames with more channels, fused with a fast pathway over all frames with
// fewer channels (Feichtenhofer et al., ICCV'19).
func NewSlowFast(rng *rand.Rand, g Geometry, featDim int) Model {
	slow := nn.NewSequential(
		nn.SubsampleTime{K: 4},
		nn.SwapCT{},
		nn.NewConv3DFull(rng, g.Channels, 2*width, [3]int{1, 3, 3}, [3]int{1, 2, 2}, [3]int{0, 1, 1}),
		nn.ReLU{},
		nn.GlobalAvgPool{},
	)
	fast := nn.NewSequential(
		nn.SwapCT{},
		nn.NewConv3DFull(rng, g.Channels, width/2, [3]int{3, 3, 3}, [3]int{1, 2, 2}, [3]int{1, 1, 1}),
		nn.ReLU{},
		nn.GlobalAvgPool{},
	)
	trunk := nn.NewSequential(
		nn.Scale{Factor: pixelScale},
		&nn.Parallel{Branches: []nn.Layer{slow, fast}},
	)
	head := nn.NewLinear(rng, probeDim(trunk, g), featDim)
	return &netModel{name: "SlowFast", dim: featDim, net: nn.NewSequential(trunk, head)}
}

// newResNet builds a per-frame residual 2-D CNN with temporal average
// pooling; blocks controls depth (2 for the ResNet18 analogue, 4 for the
// ResNet34 analogue).
func newResNet(rng *rand.Rand, g Geometry, featDim, blocks int, name string) Model {
	resBlock := func() nn.Layer {
		return &nn.Residual{Inner: nn.NewSequential(
			nn.NewConv2D(rng, width, width, 3, 1),
			nn.ReLU{},
			nn.NewConv2D(rng, width, width, 3, 1),
		)}
	}
	frame := []nn.Layer{nn.NewConv2D(rng, g.Channels, width, 3, 2), nn.ReLU{}}
	for i := 0; i < blocks; i++ {
		frame = append(frame, resBlock(), nn.ReLU{})
	}
	trunk := nn.NewSequential(
		nn.Scale{Factor: pixelScale},
		&nn.TimeDistributed{Inner: nn.NewSequential(frame...)},
		nn.SwapCT{}, // [N,w,h,w'] → [w,N,h,w'] so channels lead
		nn.GlobalAvgPool{},
	)
	head := nn.NewLinear(rng, probeDim(trunk, g), featDim)
	return &netModel{name: name, dim: featDim, net: nn.NewSequential(trunk, head)}
}

// NewResNet18 builds the ResNet18 analogue (surrogate side).
func NewResNet18(rng *rand.Rand, g Geometry, featDim int) Model {
	return newResNet(rng, g, featDim, 2, "Resnet18")
}

// NewResNet34 builds the ResNet34 analogue (victim side).
func NewResNet34(rng *rand.Rand, g Geometry, featDim int) Model {
	return newResNet(rng, g, featDim, 4, "Resnet34")
}

// NewCNNLSTM builds the paper's §III-A reference retrieval model (Fig. 1):
// a stacked CNN extracts per-frame spatial features, an LSTM integrates
// them temporally, and fully-connected layers flatten the result into the
// embedding.
func NewCNNLSTM(rng *rand.Rand, g Geometry, featDim int) Model {
	frame := nn.NewSequential(
		nn.NewConv2D(rng, g.Channels, width, 3, 2),
		nn.NewChannelNorm(width),
		nn.ReLU{},
		nn.NewConv2D(rng, width, width, 3, 2),
		nn.NewChannelNorm(width),
		nn.ReLU{},
		nn.Flatten{},
	)
	spatial := nn.NewSequential(
		nn.Scale{Factor: pixelScale},
		&nn.TimeDistributed{Inner: frame},
	)
	perFrame := probeDim(spatial, g) / g.Frames
	hidden := featDim
	if hidden > 2*width*width {
		hidden = 2 * width * width
	}
	net := nn.NewSequential(
		spatial,
		nn.NewLSTM(rng, perFrame, hidden),
		nn.NewLinear(rng, hidden, featDim),
	)
	return &netModel{name: "CNNLSTM", dim: featDim, net: net}
}

// Builder constructs a model for a geometry and feature dimension.
type Builder func(rng *rand.Rand, g Geometry, featDim int) Model

// builders is the model registry.
var builders = map[string]Builder{
	"C3D":      NewC3D,
	"CNNLSTM":  NewCNNLSTM,
	"I3D":      NewI3D,
	"TPN":      NewTPN,
	"SlowFast": NewSlowFast,
	"Resnet18": NewResNet18,
	"Resnet34": NewResNet34,
}

// Names returns every registered architecture, sorted.
func Names() []string {
	out := make([]string, 0, len(builders))
	for n := range builders {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Build constructs a registered architecture by name.
func Build(name string, rng *rand.Rand, g Geometry, featDim int) (Model, error) {
	b, ok := builders[name]
	if !ok {
		return nil, fmt.Errorf("models: unknown architecture %q (have %v)", name, Names())
	}
	return b(rng, g, featDim), nil
}
