// Package core implements the paper's contribution: the DUO attack
// pipeline. SparseTransfer (Algorithm 1) derives sparse initial
// perturbations on a stolen surrogate by alternating a gradient step on the
// magnitude θ, an exact top-k step on the linearized pixel-mask program ℐ,
// and a continuous relaxation step on the frame mask 𝓕. SparseQuery (Algorithm 2) then
// rectifies the perturbation against the black-box victim with masked
// coordinate descent on the rank-similarity objective 𝕋 (Eq. 2). Run loops
// the two (iter_numH) to escape local optima.
package core

import (
	"fmt"
	"math"

	"duo/internal/models"
	"duo/internal/opt"
	"duo/internal/tensor"
	"duo/internal/trace"
	"duo/internal/video"
)

// Mode selects the attack goal: targeted attacks steer the retrieval list
// toward a chosen target video's list; untargeted attacks (§I: "our method
// can be easily extended") only push the list away from the original's.
type Mode int

const (
	// Targeted is the paper's main setting (the default).
	Targeted Mode = iota + 1
	// Untargeted maximizes the distance from the original's own features
	// and list, with no target video.
	Untargeted
)

// NormConstraint selects how θ is projected onto the perturbation budget
// (Table IX evaluates both).
type NormConstraint int

const (
	// NormLInf clamps every element of θ to [−τ, τ] (the default, Eq. 1).
	NormLInf NormConstraint = iota + 1
	// NormL2 rescales θ onto the L2 ball of radius τ·√k, the ℓ2 variant
	// of Table IX.
	NormL2
)

// TransferConfig parameterizes SparseTransfer.
type TransferConfig struct {
	// K is the pixel budget: 1ᵀℐ = k perturbed elements.
	K int
	// N is the frame budget: ‖𝓕‖₂,₀ = n perturbed frames.
	N int
	// Tau bounds the per-element magnitude: ‖θ‖∞ ≤ τ (pixel units).
	Tau float64
	// Lambda is the L2 regularization weight (e⁻⁵ in §V-B).
	Lambda float64
	// OuterIters bounds the alternating-minimization loop.
	OuterIters int
	// ThetaSteps is the number of gradient-descent steps per θ update.
	ThetaSteps int
	// Schedule is the θ-step learning-rate schedule (§V-B: 0.1, ×0.9/50).
	Schedule opt.StepDecay
	// Norm selects the projection (ℓ∞ default, ℓ2 for Table IX).
	Norm NormConstraint
	// Tol is the relative-loss convergence tolerance.
	Tol float64
	// Mode selects Targeted (zero value and default) or Untargeted.
	Mode Mode
}

// DefaultTransferConfig returns the paper's settings mapped to a video
// geometry. The paper's absolute budgets are k = 40K of 602,112 elements
// (≈6.6%), n = 4 of 16 frames, τ = 30. Scaled-down clips have far less
// pixel redundancy, so preserving the paper's *qualitative* operating
// point (the attack succeeds and AP@m rises then saturates in each budget)
// requires proportionally larger fractions: k = 15% of elements, n = half
// the frames, τ = 40. EXPERIMENTS.md documents the mapping.
func DefaultTransferConfig(g models.Geometry) TransferConfig {
	elems := g.Frames * g.Channels * g.Height * g.Width
	n := g.Frames / 2
	if n < 1 {
		n = 1
	}
	return TransferConfig{
		K:          int(float64(elems) * 0.15),
		N:          n,
		Tau:        40,
		Lambda:     math.Exp(-5),
		OuterIters: 4,
		ThetaSteps: 20,
		Schedule:   opt.PaperSchedule(),
		Norm:       NormLInf,
		Tol:        1e-4,
	}
}

func (c TransferConfig) validate(elems, frames int) error {
	switch {
	case c.K <= 0 || c.K > elems:
		return fmt.Errorf("core: pixel budget k=%d out of range (0, %d]", c.K, elems)
	case c.N <= 0 || c.N > frames:
		return fmt.Errorf("core: frame budget n=%d out of range (0, %d]", c.N, frames)
	case c.Tau <= 0:
		return fmt.Errorf("core: τ=%g must be positive", c.Tau)
	case c.OuterIters <= 0 || c.ThetaSteps <= 0:
		return fmt.Errorf("core: non-positive iteration counts")
	}
	return nil
}

// Masks is SparseTransfer's output: the "prior knowledge" {ℐ, 𝓕, θ} that
// SparseQuery consumes.
type Masks struct {
	// Pixel is ℐ ∈ {0,1}^{N×C×H×W} with exactly K ones.
	Pixel *tensor.Tensor
	// Frame is 𝓕 ∈ {0,1}^{N×C×H×W}, constant within each frame, with N
	// active frames.
	Frame *tensor.Tensor
	// Theta is the magnitude θ with ‖θ‖∞ ≤ τ.
	Theta *tensor.Tensor
	// Loss is the final surrogate loss value (Eq. 1).
	Loss float64
	// Iterations is the number of outer alternating iterations run.
	Iterations int
	// Converged reports whether the loss change fell below Tol.
	Converged bool
}

// Compose returns the composed perturbation φ = ℐ ⊙ 𝓕 ⊙ θ.
func (m *Masks) Compose() *tensor.Tensor {
	return m.Theta.Mul(m.Pixel).MulInPlace(m.Frame)
}

// ActiveFrames returns the indices of frames selected by 𝓕.
func (m *Masks) ActiveFrames() []int {
	var out []int
	for f := 0; f < m.Frame.Dim(0); f++ {
		if m.Frame.Slice(f).Max() > 0 {
			out = append(out, f)
		}
	}
	return out
}

// SparseTransfer runs Algorithm 1 on the surrogate s: given the original
// video v and target vt it returns sparse masks and magnitudes minimizing
// Eq. (1). In Untargeted mode vt may be nil and the objective flips to
// maximizing the feature distance from v itself.
func SparseTransfer(s models.Model, v, vt *video.Video, cfg TransferConfig) (*Masks, error) {
	return sparseTransfer(nil, nil, s, v, vt, cfg)
}

// sparseTransfer is SparseTransfer with span recording: one sparsetransfer
// span under parent, with one transfer.theta / transfer.pixel /
// transfer.frame child per outer iteration and a final transfer.polish.
// The stage structure mirrors Algorithm 1's alternation, so duotrace can
// attribute surrogate-side cost per stage. A nil tracer records nothing.
func sparseTransfer(tr *trace.Tracer, parent *trace.Span, s models.Model, v, vt *video.Video, cfg TransferConfig) (*Masks, error) {
	shape := v.Data.Shape()
	elems := v.Data.Len()
	frames := v.Frames()
	if err := cfg.validate(elems, frames); err != nil {
		return nil, err
	}
	untargeted := cfg.Mode == Untargeted
	if untargeted {
		vt = v
	} else if vt == nil {
		return nil, fmt.Errorf("core: targeted SparseTransfer needs a target video")
	}
	if !v.Data.SameShape(vt.Data) {
		return nil, fmt.Errorf("core: original %v and target %v shapes differ", v.Data.Shape(), vt.Data.Shape())
	}

	sp := tr.Start(parent, "sparsetransfer")
	defer sp.End()

	// Line 1: ℐ = 1, 𝓕 = 1, θ = 0.
	m := &Masks{
		Pixel: tensor.New(shape...).ApplyInPlace(func(float64) float64 { return 1 }),
		Frame: tensor.New(shape...).ApplyInPlace(func(float64) float64 { return 1 }),
		Theta: tensor.New(shape...),
	}
	if untargeted {
		// θ = 0 is a stationary point of the untargeted objective (the
		// gradient of −‖Fea(v+0)−Fea(v)‖² vanishes), so seed θ with a
		// deterministic ±1 checkerboard to break the symmetry.
		td := m.Theta.Data()
		for i := range td {
			if i%2 == 0 {
				td[i] = 1
			} else {
				td[i] = -1
			}
		}
	}

	targetFeat := models.Embed(s, vt)
	perFrame := elems / frames

	// frameScores is the continuous relaxation 𝒞 (line 5), updated with
	// momentum from per-frame gradient energy (the dependence-guided
	// update of [47]).
	frameScores := make([]float64, frames)

	prevLoss := math.Inf(1)
	step := 0
	regScale := 1 / (video.PixelMax * video.PixelMax)
	var lastGrad *tensor.Tensor

	// sign is +1 to approach the target's features (targeted) or −1 to
	// flee the original's (untargeted).
	sign := 1.0
	if untargeted {
		sign = -1
	}
	// Scratch owned by this call: v ⊕ φ, the θ update and the ℐ-step
	// scores are rewritten in place every step.
	adv := tensor.New(shape...)
	upd := tensor.New(shape...)
	scoreData := make([]float64, elems)
	vd, pd, fd := v.Data.Data(), m.Pixel.Data(), m.Frame.Data()
	// onFrames marks 𝓕's frames once the 𝓕-step has run; it stays nil
	// while 𝓕 = 1 (line 1) or n covers every frame.
	var onFrames []bool

	// evalLoss returns Eq. (1) at the current masks and θ and, when
	// withGrad is set, its gradient with respect to the adversarial pixels:
	// everywhere when keep is nil, else only on the frames keep marks (zero
	// or complete on the others, see models.BackwardFrames).
	evalLoss := func(withGrad bool, keep []bool) (float64, *tensor.Tensor) {
		// One pass composes φ = ℐ⊙𝓕⊙θ, clamps v ⊕ φ to the pixel range
		// and sums ‖φ‖² in index order.
		td, ad := m.Theta.Data(), adv.Data()
		reg := 0.0
		for i, t := range td {
			ph := t * pd[i] * fd[i]
			ad[i] = max(video.PixelMin, min(video.PixelMax, vd[i]+ph))
			reg += ph * ph
		}
		feat, cache := s.Forward(adv)
		diff := feat.Sub(targetFeat)
		// The regularizer is computed in normalized [0,1] pixel units so
		// that λ=e⁻⁵ weighs it comparably to the unit-scale feature
		// distance (as in the reference implementation).
		loss := sign*diff.SquaredL2() + cfg.Lambda*reg*regScale
		if !withGrad {
			return loss, nil
		}
		// dL/dfeat = ±2(feat − target); backprop to pixels.
		return loss, models.BackwardFrames(s, cache, diff.Scale(2*sign), keep)
	}

	// Normalized fixed-size steps can oscillate across a narrow valley on
	// the scaled-down surrogates, so we track the best θ visited and
	// return it (a cheap trust-region fallback).
	bestLoss := math.Inf(1)
	bestTheta := tensor.New(shape...)
	noteTheta := func(loss float64) {
		if loss < bestLoss {
			bestLoss = loss
			bestTheta.CopyFrom(m.Theta)
		}
	}

	// thetaStep takes one projected, ‖·‖∞-normalized descent step on θ:
	// dL/dθ = (dL/dv_adv + 2λθ) ⊙ ℐ ⊙ 𝓕. It reads grad only on ℐ⊙𝓕.
	regGrad := 2 * cfg.Lambda * regScale
	thetaStep := func(grad *tensor.Tensor, lr float64) {
		gd, td, ud := grad.Data(), m.Theta.Data(), upd.Data()
		ni := 0.0 // ‖update‖∞, formed in the same pass
		for i := range ud {
			u := (gd[i] + td[i]*regGrad) * pd[i] * fd[i]
			ud[i] = u
			if a := math.Abs(u); a > ni {
				ni = a
			}
		}
		if cfg.Norm == NormL2 {
			if ni > 1e-12 {
				m.Theta.AddScaled(-lr*cfg.Tau/ni, upd)
			}
			projectL2(m.Theta, cfg)
			return
		}
		// ℓ∞: the step and the ±τ clamp in one pass.
		tau := cfg.Tau
		if ni <= 1e-12 {
			for i, t := range td {
				td[i] = max(-tau, min(tau, t))
			}
			return
		}
		a := -lr * cfg.Tau / ni
		for i, u := range ud {
			td[i] = max(-tau, min(tau, td[i]+a*u))
		}
	}

	for it := 0; it < cfg.OuterIters; it++ {
		m.Iterations = it + 1

		// Line 3: update θ by gradient descent under S, masked and
		// projected onto the τ budget. The raw input gradient's scale
		// depends on the surrogate's depth, so the step is normalized by
		// ‖·‖∞ and scaled by lr·τ (the same normalization MI-FGSM-family
		// attacks use) to make the schedule meaningful across models.
		thetaSp := tr.Start(sp, "transfer.theta")
		thetaSp.SetInt("iter", int64(it))
		var loss float64
		for t := 0; t < cfg.ThetaSteps; t++ {
			// The last step's gradient feeds the ℐ- and 𝓕-steps, which read
			// every element; the others only feed thetaStep.
			keep := onFrames
			if t == cfg.ThetaSteps-1 {
				keep = nil
			}
			loss, lastGrad = evalLoss(true, keep)
			noteTheta(loss)
			thetaStep(lastGrad, cfg.Schedule.At(step))
			step++
		}
		thetaSp.SetInt("steps", int64(cfg.ThetaSteps))
		thetaSp.SetFloat("loss", loss)
		thetaSp.End()

		// Line 4: update ℐ by solving the linearized program exactly. The
		// score |θ ⊙ ∇L| is each element's expected loss reduction.
		pixelSp := tr.Start(sp, "transfer.pixel")
		pixelSp.SetInt("iter", int64(it))
		thetaData, gradData := m.Theta.Data(), lastGrad.Data()
		for i := range scoreData {
			scoreData[i] = math.Abs(thetaData[i] * gradData[i])
		}
		selectPixels(pd, scoreData, cfg.K)
		pixelSp.SetInt("k", int64(cfg.K))
		pixelSp.End()

		// Lines 5–7: relax 𝓕 to 𝒞, update 𝒞 from per-frame energy with
		// momentum, then keep the top-n frames by ‖𝒞‖₂.
		frameSp := tr.Start(sp, "transfer.frame")
		frameSp.SetInt("iter", int64(it))
		for f := 0; f < frames; f++ {
			energy := 0.0
			for i := f * perFrame; i < (f+1)*perFrame; i++ {
				energy += math.Abs((thetaData[i] * pd[i]) * (gradData[i] * pd[i]))
			}
			frameScores[f] = 0.5*frameScores[f] + 0.5*energy
		}
		top := tensor.TopK(frameScores, cfg.N)
		m.Frame.Zero()
		for _, f := range top {
			m.Frame.Slice(f).Fill(1)
		}
		if cfg.N < frames {
			if onFrames == nil {
				onFrames = make([]bool, frames)
			}
			clear(onFrames)
			for _, f := range top {
				onFrames[f] = true
			}
		}
		frameSp.SetInt("n", int64(cfg.N))
		frameSp.End()

		m.Loss = loss
		if math.Abs(prevLoss-loss) < cfg.Tol*(1+math.Abs(prevLoss)) {
			m.Converged = true
			break
		}
		prevLoss = loss
	}

	// Final polish of θ on the fixed masks so magnitudes reflect the final
	// support.
	polishSp := tr.Start(sp, "transfer.polish")
	for t := 0; t < cfg.ThetaSteps; t++ {
		loss, grad := evalLoss(true, onFrames)
		noteTheta(loss)
		m.Loss = loss
		thetaStep(grad, cfg.Schedule.At(step))
		step++
	}
	loss, _ := evalLoss(false, nil)
	noteTheta(loss)
	polishSp.End()
	if bestLoss < math.Inf(1) {
		m.Theta = bestTheta
		m.Loss = bestLoss
	}
	sp.SetInt("iterations", int64(m.Iterations))
	if m.Converged {
		sp.SetInt("converged", 1)
	} else {
		sp.SetInt("converged", 0)
	}
	sp.SetFloat("loss", m.Loss)
	// Quantize θ to whole pixel levels: videos are 8-bit, so sub-0.5
	// magnitudes cannot survive encoding. Quantization is also what keeps
	// the *effective* Spa well below k — elements whose optimal magnitude
	// is negligible drop out of the support entirely.
	m.Theta.ApplyInPlace(math.Round)
	return m, nil
}

// projectL2 enforces the ℓ2 variant of Eq. (1)'s norm constraint on θ
// (Table IX); the ℓ∞ variant, every element clamped to ±τ, is fused into
// thetaStep.
//
// The ℓ2 variant bounds the total perturbation energy: ‖θ‖₂ ≤ τ·√k/2,
// i.e. the energy of an ℓ∞-budget perturbation at 50% average saturation.
// Individual elements may exceed τ under ℓ2 (pixel-range feasibility is
// enforced when the perturbation is applied), which is what distinguishes
// the two rows of Table IX.
func projectL2(theta *tensor.Tensor, cfg TransferConfig) {
	radius := cfg.Tau * math.Sqrt(float64(cfg.K)) / 2
	if n := theta.L2(); n > radius {
		theta.ScaleInPlace(radius / n)
	}
}

// selectPixels sets pd to the exact minimizer of the linearized ℐ-step
//
//	minimize cᵀx  subject to  1ᵀx = k,  x ∈ {0,1}^d ,  c = −score,
//
// which marks the k largest scores; ties at the cut go to the lower index.
func selectPixels(pd, score []float64, k int) {
	clear(pd)
	for _, i := range tensor.TopK(score, k) {
		pd[i] = 1
	}
}
