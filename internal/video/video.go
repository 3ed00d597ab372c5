// Package video defines the video and perturbation types shared by the
// retrieval system and the attacks. A video is an [N, C, H, W] tensor of
// pixel values in [0, 255] (N frames, C channels), matching the paper's
// v ∈ R^{N×W×H×C} up to axis ordering.
package video

import (
	"fmt"

	"duo/internal/tensor"
)

// PixelMin and PixelMax bound valid pixel values; CLIP in Algorithm 2
// projects onto this range.
const (
	PixelMin = 0.0
	PixelMax = 255.0
)

// Video is a labelled video clip.
type Video struct {
	// Data has shape [N, C, H, W] with values in [PixelMin, PixelMax].
	Data *tensor.Tensor
	// Label is the category index (used for mAP ground truth).
	Label int
	// ID uniquely identifies the video within its corpus.
	ID string
}

// New returns a zero (black) video with the given geometry.
func New(frames, channels, height, width int) *Video {
	return &Video{Data: tensor.New(frames, channels, height, width)}
}

// FromTensor wraps an existing [N,C,H,W] tensor as a video.
func FromTensor(t *tensor.Tensor, label int, id string) *Video {
	if t.Rank() != 4 {
		panic(fmt.Sprintf("video: tensor rank %d, want 4", t.Rank()))
	}
	return &Video{Data: t, Label: label, ID: id}
}

// Frames returns the number of frames N.
func (v *Video) Frames() int { return v.Data.Dim(0) }

// Channels returns the number of channels C.
func (v *Video) Channels() int { return v.Data.Dim(1) }

// Height returns the frame height H.
func (v *Video) Height() int { return v.Data.Dim(2) }

// Width returns the frame width W.
func (v *Video) Width() int { return v.Data.Dim(3) }

// Pixels returns the per-frame pixel count B×C = C·H·W (elements per frame).
func (v *Video) Pixels() int { return v.Channels() * v.Height() * v.Width() }

// Clone returns a deep copy.
func (v *Video) Clone() *Video {
	return &Video{Data: v.Data.Clone(), Label: v.Label, ID: v.ID}
}

// Clip projects all pixels onto [PixelMin, PixelMax] in place and returns v.
func (v *Video) Clip() *Video {
	v.Data.ClampInPlace(PixelMin, PixelMax)
	return v
}

// Add returns a new video v + φ, clipped to the valid pixel range. The
// label and ID are preserved.
func (v *Video) Add(phi *tensor.Tensor) *Video {
	out := &Video{Data: v.Data.Add(phi), Label: v.Label, ID: v.ID}
	return out.Clip()
}

// UniformSample returns an n-frame snippet sampled uniformly from v
// (following [1], as in §V-A). If v already has n frames it is cloned.
func (v *Video) UniformSample(n int) *Video {
	total := v.Frames()
	if n <= 0 || n > total {
		panic(fmt.Sprintf("video: cannot sample %d frames from %d", n, total))
	}
	out := New(n, v.Channels(), v.Height(), v.Width())
	out.Label, out.ID = v.Label, v.ID
	for i := 0; i < n; i++ {
		src := i * total / n
		out.Data.Slice(i).CopyFrom(v.Data.Slice(src))
	}
	return out
}

// Perturbation is an additive adversarial perturbation φ with the paper's
// sparsity accounting.
type Perturbation struct {
	// Delta has the same [N,C,H,W] shape as the video it perturbs.
	Delta *tensor.Tensor
}

// NewPerturbation returns an all-zero perturbation matching v's geometry.
func NewPerturbation(v *Video) *Perturbation {
	return &Perturbation{Delta: tensor.New(v.Data.Shape()...)}
}

// Spa returns Σᵢ ‖φᵢ‖₀: the total number of perturbed elements across all
// frames (§V-A). Smaller is stealthier.
func (p *Perturbation) Spa() int { return p.Delta.L0() }

// PScore returns the perceptibility score (1/(N·B·C))·Σ|φᵢ| of [49]:
// the mean absolute perturbation per element. Smaller is stealthier.
func (p *Perturbation) PScore() float64 { return p.Delta.L1() / float64(p.Delta.Len()) }

// PerturbedFrames returns ‖φ‖₂,₀: the number of frames containing any
// perturbation.
func (p *Perturbation) PerturbedFrames() int { return p.Delta.L20() }

// LInf returns ‖φ‖∞, the largest per-element magnitude.
func (p *Perturbation) LInf() float64 { return p.Delta.LInf() }

// Apply returns v + φ clipped to the valid pixel range.
func (p *Perturbation) Apply(v *Video) *Video { return v.Add(p.Delta) }

// EffectiveDelta recomputes the perturbation that actually lands on v after
// pixel clipping, which is what an observer (and the sparsity metrics in
// the evaluation) sees.
func (p *Perturbation) EffectiveDelta(v *Video) *tensor.Tensor {
	adv := p.Apply(v)
	return adv.Data.Sub(v.Data)
}
