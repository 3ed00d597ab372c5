package video

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"duo/internal/tensor"
)

func randVideo(seed int64) *Video {
	rng := rand.New(rand.NewSource(seed))
	v := New(4, 3, 8, 8)
	v.Data.FillUniform(rng, 0, 255)
	return v
}

func TestPSNRIdentical(t *testing.T) {
	v := randVideo(1)
	if got := PSNR(v, v); !math.IsInf(got, 1) {
		t.Errorf("PSNR(v, v) = %g, want +Inf", got)
	}
}

func TestPSNRDecreasesWithNoise(t *testing.T) {
	v := randVideo(2)
	rng := rand.New(rand.NewSource(3))
	small := v.Clone()
	small.Data.AddInPlace(tensor.RandNormal(rng, 0, 1, v.Data.Shape()...))
	small.Clip()
	large := v.Clone()
	large.Data.AddInPlace(tensor.RandNormal(rng, 0, 20, v.Data.Shape()...))
	large.Clip()
	ps, pl := PSNR(v, small), PSNR(v, large)
	if ps <= pl {
		t.Errorf("PSNR ordering wrong: small-noise %g ≤ large-noise %g", ps, pl)
	}
	if ps < 30 {
		t.Errorf("1-unit noise PSNR = %g, expected ≥ 30 dB", ps)
	}
}

func TestSSIMIdentical(t *testing.T) {
	v := randVideo(4)
	if got := SSIM(v, v); math.Abs(got-1) > 1e-12 {
		t.Errorf("SSIM(v, v) = %g, want 1", got)
	}
}

func TestSSIMDecreasesWithPerturbation(t *testing.T) {
	v := randVideo(5)
	rng := rand.New(rand.NewSource(6))
	adv := v.Clone()
	adv.Data.AddInPlace(tensor.RandNormal(rng, 0, 40, v.Data.Shape()...))
	adv.Clip()
	got := SSIM(v, adv)
	if got >= 1 {
		t.Errorf("SSIM after heavy noise = %g, want < 1", got)
	}
}

func TestSSIMSparsePerturbationBarelyMoves(t *testing.T) {
	// A DUO-like sparse perturbation (a few ±30 impulses) must keep SSIM
	// near 1 — this is the quantitative form of "stealthy".
	v := randVideo(7)
	adv := v.Clone()
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 20; i++ {
		idx := rng.Intn(adv.Data.Len())
		adv.Data.Data()[idx] += 30
	}
	adv.Clip()
	if got := SSIM(v, adv); got < 0.95 {
		t.Errorf("sparse perturbation SSIM = %g, want ≥ 0.95", got)
	}
}

func TestPropSSIMBounds(t *testing.T) {
	f := func(seedA, seedB int64) bool {
		a, b := randVideo(seedA), randVideo(seedB)
		s := SSIM(a, b)
		return s <= 1+1e-9 && s >= -1-1e-9 && !math.IsNaN(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropPSNRSymmetric(t *testing.T) {
	f := func(seedA, seedB int64) bool {
		a, b := randVideo(seedA), randVideo(seedB)
		pa, pb := PSNR(a, b), PSNR(b, a)
		if math.IsInf(pa, 1) {
			return math.IsInf(pb, 1)
		}
		return math.Abs(pa-pb) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
