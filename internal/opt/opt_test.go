package opt

import (
	"math"
	"math/rand"
	"testing"

	"duo/internal/nn"
	"duo/internal/tensor"
)

// quadratic returns the loss x² summed and sets the gradient 2x.
func quadratic(p *nn.Param) float64 {
	loss := 0.0
	p.ZeroGrad()
	for i, v := range p.Value.Data() {
		loss += v * v
		p.Grad.Data()[i] = 2 * v
	}
	return loss
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	p := nn.NewParam("x", tensor.From([]float64{3, -4}, 2))
	o := NewAdam(0.2)
	for i := 0; i < 300; i++ {
		quadratic(p)
		o.Step([]*nn.Param{p})
	}
	if quadratic(p) > 1e-4 {
		t.Errorf("Adam did not converge: loss %g", quadratic(p))
	}
}

func TestAdamFirstStepIsLR(t *testing.T) {
	// With bias correction, the very first Adam step has magnitude ≈ lr.
	p := nn.NewParam("x", tensor.From([]float64{1}, 1))
	o := NewAdam(0.1)
	p.Grad.Set(5, 0)
	o.Step([]*nn.Param{p})
	if math.Abs(1-p.Value.At(0)-0.1) > 1e-6 {
		t.Errorf("first Adam step = %g, want ≈ 0.1", 1-p.Value.At(0))
	}
}

func TestStepDecaySchedule(t *testing.T) {
	s := PaperSchedule()
	if got := s.At(0); got != 0.1 {
		t.Errorf("At(0) = %g", got)
	}
	if got := s.At(49); got != 0.1 {
		t.Errorf("At(49) = %g", got)
	}
	if got := s.At(50); math.Abs(got-0.09) > 1e-12 {
		t.Errorf("At(50) = %g, want 0.09", got)
	}
	if got := s.At(100); math.Abs(got-0.081) > 1e-12 {
		t.Errorf("At(100) = %g, want 0.081", got)
	}
	// Degenerate Every never divides by zero.
	flat := StepDecay{Base: 1, Factor: 0.5, Every: 0}
	if flat.At(1000) != 1 {
		t.Error("Every=0 should be constant")
	}
}

func TestZeroGrads(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := nn.NewParam("x", tensor.RandNormal(rng, 0, 1, 3))
	p.Grad.Fill(2)
	ZeroGrads([]*nn.Param{p})
	if p.Grad.Sum() != 0 {
		t.Error("ZeroGrads left gradient nonzero")
	}
}
