package video

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"duo/internal/tensor"
)

func TestNewGeometry(t *testing.T) {
	v := New(8, 3, 12, 10)
	if v.Frames() != 8 || v.Channels() != 3 || v.Height() != 12 || v.Width() != 10 {
		t.Errorf("geometry = %d,%d,%d,%d", v.Frames(), v.Channels(), v.Height(), v.Width())
	}
	if v.Pixels() != 3*12*10 {
		t.Errorf("Pixels = %d", v.Pixels())
	}
}

func TestFromTensorRejectsWrongRank(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromTensor rank-2 did not panic")
		}
	}()
	FromTensor(tensor.New(2, 2), 0, "x")
}

func TestClipBoundsPixels(t *testing.T) {
	v := New(1, 1, 1, 2)
	v.Data.Set(-50, 0, 0, 0, 0)
	v.Data.Set(400, 0, 0, 0, 1)
	v.Clip()
	if v.Data.At(0, 0, 0, 0) != PixelMin || v.Data.At(0, 0, 0, 1) != PixelMax {
		t.Errorf("clip = %v", v.Data)
	}
}

func TestAddClipsAndPreservesIdentity(t *testing.T) {
	v := New(1, 1, 1, 1)
	v.Label, v.ID = 7, "vid7"
	v.Data.Set(250, 0, 0, 0, 0)
	phi := tensor.New(1, 1, 1, 1)
	phi.Set(30, 0, 0, 0, 0)
	adv := v.Add(phi)
	if adv.Data.At(0, 0, 0, 0) != 255 {
		t.Errorf("Add not clipped: %g", adv.Data.At(0, 0, 0, 0))
	}
	if adv.Label != 7 || adv.ID != "vid7" {
		t.Error("Add lost label/ID")
	}
	if v.Data.At(0, 0, 0, 0) != 250 {
		t.Error("Add mutated original")
	}
}

func TestUniformSample(t *testing.T) {
	v := New(32, 1, 1, 1)
	for i := 0; i < 32; i++ {
		v.Data.Set(float64(i), i, 0, 0, 0)
	}
	s := v.UniformSample(16)
	if s.Frames() != 16 {
		t.Fatalf("sampled %d frames", s.Frames())
	}
	// Every other frame: 0, 2, 4, ...
	for i := 0; i < 16; i++ {
		if got := s.Data.At(i, 0, 0, 0); got != float64(2*i) {
			t.Errorf("frame %d = %g, want %d", i, got, 2*i)
		}
	}
	same := v.UniformSample(32)
	if !same.Data.Equal(v.Data, 0) {
		t.Error("full sample differs")
	}
}

func TestUniformSamplePanicsWhenTooMany(t *testing.T) {
	v := New(4, 1, 1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic sampling 8 from 4")
		}
	}()
	v.UniformSample(8)
}

func TestPerturbationMetrics(t *testing.T) {
	v := New(4, 1, 2, 2) // 4 frames × 4 elems
	p := NewPerturbation(v)
	if p.Spa() != 0 || p.PScore() != 0 || p.PerturbedFrames() != 0 {
		t.Error("zero perturbation has nonzero metrics")
	}
	p.Delta.Set(30, 0, 0, 0, 0)
	p.Delta.Set(-30, 0, 0, 1, 1)
	p.Delta.Set(10, 2, 0, 0, 0)
	if got := p.Spa(); got != 3 {
		t.Errorf("Spa = %d, want 3", got)
	}
	if got := p.PerturbedFrames(); got != 2 {
		t.Errorf("PerturbedFrames = %d, want 2", got)
	}
	wantP := (30.0 + 30.0 + 10.0) / 16.0
	if got := p.PScore(); math.Abs(got-wantP) > 1e-12 {
		t.Errorf("PScore = %g, want %g", got, wantP)
	}
	if got := p.LInf(); got != 30 {
		t.Errorf("LInf = %g", got)
	}
}

func TestEffectiveDeltaAccountsForClipping(t *testing.T) {
	v := New(1, 1, 1, 1)
	v.Data.Set(250, 0, 0, 0, 0)
	p := NewPerturbation(v)
	p.Delta.Set(30, 0, 0, 0, 0)
	eff := p.EffectiveDelta(v)
	if eff.At(0, 0, 0, 0) != 5 {
		t.Errorf("effective delta = %g, want 5 (clipped at 255)", eff.At(0, 0, 0, 0))
	}
}

func TestPropApplyAlwaysInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(scale float64) bool {
		if math.IsNaN(scale) || math.IsInf(scale, 0) {
			return true
		}
		v := New(2, 1, 2, 2)
		v.Data.FillUniform(rng, 0, 255)
		p := NewPerturbation(v)
		p.Delta.FillNormal(rng, 0, math.Mod(math.Abs(scale), 1000))
		adv := p.Apply(v)
		return adv.Data.Min() >= PixelMin && adv.Data.Max() <= PixelMax
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropSpaNeverExceedsElements(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func(n uint8) bool {
		v := New(2, 1, 2, 2)
		p := NewPerturbation(v)
		p.Delta.FillNormal(rng, 0, float64(n%10))
		return p.Spa() <= p.Delta.Len() && p.PerturbedFrames() <= v.Frames()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
