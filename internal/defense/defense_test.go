package defense

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"duo/internal/dataset"
	"duo/internal/models"
	"duo/internal/nn/losses"
	"duo/internal/tensor"
	"duo/internal/video"
)

type fixture struct {
	corpus *dataset.Corpus
	model  models.Model
}

var (
	fixOnce sync.Once
	fix     *fixture
)

func getFixture(t *testing.T) *fixture {
	t.Helper()
	fixOnce.Do(func() {
		c, err := dataset.Generate(dataset.Config{
			Name: "DefSim", Categories: 3, TrainPerCategory: 5, TestPerCategory: 3,
			Frames: 8, Channels: 3, Height: 12, Width: 12, Seed: 51,
		})
		if err != nil {
			panic(err)
		}
		rng := rand.New(rand.NewSource(52))
		m := models.NewC3D(rng, models.GeometryOf(c.Train[0]), 16)
		tc := models.DefaultTrainConfig()
		tc.Epochs = 2
		if _, err := models.Train(m, losses.Triplet{Margin: 0.2}, c.Train, tc); err != nil {
			panic(err)
		}
		fix = &fixture{corpus: c, model: m}
	})
	return fix
}

func TestSqueezeBitsQuantizes(t *testing.T) {
	v := video.New(1, 1, 1, 3)
	v.Data.Set(100, 0, 0, 0, 0)
	v.Data.Set(101, 0, 0, 0, 1)
	v.Data.Set(255, 0, 0, 0, 2)
	s := SqueezeBits(v, 2) // 4 levels: 0, 85, 170, 255
	if s.Data.At(0, 0, 0, 0) != s.Data.At(0, 0, 0, 1) {
		t.Error("nearby values not merged by quantization")
	}
	if s.Data.At(0, 0, 0, 2) != 255 {
		t.Errorf("max level = %g", s.Data.At(0, 0, 0, 2))
	}
	// Bits out of range are clamped, not fatal.
	_ = SqueezeBits(v, 0)
	_ = SqueezeBits(v, 99)
}

func TestSqueezeBitsIdempotent(t *testing.T) {
	f := getFixture(t)
	v := f.corpus.Train[0]
	once := SqueezeBits(v, 3)
	twice := SqueezeBits(once, 3)
	if !once.Data.Equal(twice.Data, 1e-9) {
		t.Error("squeeze not idempotent")
	}
}

func TestMedianFilterRemovesImpulse(t *testing.T) {
	v := video.New(1, 1, 5, 5)
	v.Data.ApplyInPlace(func(float64) float64 { return 100 })
	v.Data.Set(255, 0, 0, 2, 2) // single impulse
	fil := MedianFilter(v, 1)
	if fil.Data.At(0, 0, 2, 2) != 100 {
		t.Errorf("impulse survived: %g", fil.Data.At(0, 0, 2, 2))
	}
	if got := MedianFilter(v, 0); !got.Data.Equal(v.Data, 0) {
		t.Error("k=0 should be identity")
	}
}

func TestDenoiseRemovesSparseNoise(t *testing.T) {
	v := video.New(1, 1, 6, 6)
	v.Data.ApplyInPlace(func(float64) float64 { return 50 })
	noisy := v.Clone()
	noisy.Data.Set(255, 0, 0, 3, 3)
	den := DenoiseJInvariant(noisy)
	// The spike's position is re-predicted from clean neighbours.
	if den.Data.At(0, 0, 3, 3) != 50 {
		t.Errorf("spike survived: %g", den.Data.At(0, 0, 3, 3))
	}
}

// sparseAdversarial plants a sparse high-magnitude perturbation, mimicking
// a sparse AE.
func sparseAdversarial(rng *rand.Rand, v *video.Video, k int, tau float64) *video.Video {
	adv := v.Clone()
	d := adv.Data.Data()
	for _, i := range rng.Perm(len(d))[:k] {
		if rng.Intn(2) == 0 {
			d[i] += tau
		} else {
			d[i] -= tau
		}
	}
	adv.Clip()
	return adv
}

func TestCalibrationBoundsFalsePositives(t *testing.T) {
	f := getFixture(t)
	det := &FeatureSqueezer{Model: f.model, Bits: 4, MedianK: 1}
	thr, err := CalibrateThreshold(det, f.corpus.Train, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	// By construction, ≤ ~10% of the calibration set exceeds the
	// threshold.
	fp := DetectionRate(det, thr, f.corpus.Train)
	if fp > 0.15 {
		t.Errorf("false-positive rate %g after calibrating to 0.1", fp)
	}
}

func TestCalibrationErrors(t *testing.T) {
	f := getFixture(t)
	det := &Noise2Self{Model: f.model}
	if _, err := CalibrateThreshold(det, nil, 0.05); err == nil {
		t.Error("empty calibration set accepted")
	}
	if _, err := CalibrateThreshold(det, f.corpus.Train, 0); err == nil {
		t.Error("fpr=0 accepted")
	}
	if _, err := CalibrateThreshold(det, f.corpus.Train, 1); err == nil {
		t.Error("fpr=1 accepted")
	}
}

func TestDetectorsFlagCrudeSparseAEs(t *testing.T) {
	// A crude sparse perturbation with extreme magnitude must be caught
	// far more often than clean videos.
	f := getFixture(t)
	rng := rand.New(rand.NewSource(53))
	dets := []Detector{
		&FeatureSqueezer{Model: f.model, Bits: 3, MedianK: 1},
		&Noise2Self{Model: f.model},
	}
	var advs []*video.Video
	for _, v := range f.corpus.Test {
		advs = append(advs, sparseAdversarial(rng, v, v.Data.Len()/10, 200))
	}
	for _, det := range dets {
		thr, err := CalibrateThreshold(det, f.corpus.Train, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		rate := DetectionRate(det, thr, advs)
		fpRate := DetectionRate(det, thr, f.corpus.Train)
		if rate < 0.4 {
			t.Errorf("%s: detection rate %g for crude AEs, want ≥ 0.4", det.Name(), rate)
		}
		if rate <= fpRate {
			t.Errorf("%s: AE rate %g not above clean FP rate %g", det.Name(), rate, fpRate)
		}
	}
}

func TestDetectionRateEmptyInput(t *testing.T) {
	f := getFixture(t)
	det := &Noise2Self{Model: f.model}
	if got := DetectionRate(det, 1, nil); got != 0 {
		t.Errorf("rate on empty set = %g", got)
	}
}

func TestStatefulDetectorFlagsRepeatedQueries(t *testing.T) {
	f := getFixture(t)
	det := NewStatefulDetector(10, 5, 5)
	base := f.corpus.Test[0]
	// A query attack: many near-identical queries per account, from six
	// accounts met out of name order.
	accounts := []string{"attacker", "raider-4", "raider-1", "raider-3", "raider-0", "raider-2"}
	rng := rand.New(rand.NewSource(54))
	for _, account := range accounts {
		flagged := false
		for i := 0; i < 10; i++ {
			q := base.Clone()
			q.Data.AddInPlace(tensor.RandNormal(rng, 0, 0.5, base.Data.Shape()...))
			q.Clip()
			if det.Observe(account, q) {
				flagged = true
			}
		}
		if !flagged {
			t.Errorf("attack account %s never flagged", account)
		}
	}
	want := "attacker raider-0 raider-1 raider-2 raider-3 raider-4"
	for i := 0; i < 20; i++ {
		if got := strings.Join(det.FlaggedAccounts(), " "); got != want {
			t.Fatalf("FlaggedAccounts = %q, want sorted %q", got, want)
		}
	}
}

func TestStatefulDetectorIgnoresDiverseTraffic(t *testing.T) {
	f := getFixture(t)
	det := NewStatefulDetector(10, 5, 5)
	for i, v := range f.corpus.Train {
		if det.Observe("honest", v) {
			t.Fatalf("honest account flagged at query %d", i)
		}
	}
}

func TestStatefulDetectorEvadedByAccountRotation(t *testing.T) {
	// §I: rotating accounts evades stateful detection — each account's
	// window never fills with near-duplicates.
	f := getFixture(t)
	det := NewStatefulDetector(10, 5, 5)
	base := f.corpus.Test[0]
	rng := rand.New(rand.NewSource(55))
	for i := 0; i < 20; i++ {
		q := base.Clone()
		q.Data.AddInPlace(tensor.RandNormal(rng, 0, 0.5, base.Data.Shape()...))
		q.Clip()
		account := fmt.Sprintf("sybil-%d", i%7) // rotate 7 accounts
		if det.Observe(account, q) {
			// With window MinQueries=5 and only ~3 queries per account,
			// no account should be flagged.
			t.Fatalf("rotated account %s flagged", account)
		}
	}
}
