package models

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"

	"duo/internal/nn"
	"duo/internal/nn/losses"
	"duo/internal/tensor"
)

// sameBits reports whether a and b hold the same IEEE-754 bits.
func sameBits(a, b *tensor.Tensor) bool {
	ad, bd := a.Data(), b.Data()
	if len(ad) != len(bd) {
		return false
	}
	for i := range ad {
		if math.Float64bits(ad[i]) != math.Float64bits(bd[i]) {
			return false
		}
	}
	return true
}

// TestFrozenModelsShareAcrossGoroutines freezes every architecture and runs
// Forward and Backward on it from four goroutines at once. Each goroutine
// must get the embedding and input gradient the unfrozen model computed
// for its clip, bit for bit, and no Grad may reappear. Run it with -race.
func TestFrozenModelsShareAcrossGoroutines(t *testing.T) {
	const goroutines = 4
	for _, name := range Names() {
		rng := rand.New(rand.NewSource(21))
		m, err := Build(name, rng, tinyGeom, 8)
		if err != nil {
			t.Fatal(err)
		}
		xs := make([]*tensor.Tensor, goroutines)
		gs := make([]*tensor.Tensor, goroutines)
		wantE := make([]*tensor.Tensor, goroutines)
		wantDX := make([]*tensor.Tensor, goroutines)
		for i := range xs {
			xs[i] = tensor.RandUniform(rng, 0, 255, tinyGeom.Frames, tinyGeom.Channels, tinyGeom.Height, tinyGeom.Width)
			gs[i] = tensor.RandNormal(rng, 0, 1, m.FeatureDim())
			var c nn.Cache
			wantE[i], c = m.Forward(xs[i])
			wantDX[i] = m.Backward(c, gs[i])
		}
		Freeze(m)
		if !Frozen(m) {
			t.Fatalf("%s: Frozen false after Freeze", name)
		}
		var wg sync.WaitGroup
		wg.Add(goroutines)
		for i := 0; i < goroutines; i++ {
			go func(i int) {
				defer wg.Done()
				for rep := 0; rep < 2; rep++ {
					e, c := m.Forward(xs[i])
					dx := m.Backward(c, gs[i])
					if !sameBits(wantE[i], e) || !sameBits(wantDX[i], dx) {
						t.Errorf("%s goroutine %d: frozen output differs from the unfrozen model's", name, i)
						return
					}
				}
			}(i)
		}
		wg.Wait()
		for _, p := range m.Params() {
			if p.Grad != nil {
				t.Fatalf("%s: %s.Grad set on a frozen model", name, p.Name)
			}
		}
	}
}

// TestFrozenModelRejectsTraining checks that both training entry points of
// this package refuse a frozen model instead of training it.
func TestFrozenModelRejectsTraining(t *testing.T) {
	c := trainTinyCorpus(t)
	m := NewC3D(rand.New(rand.NewSource(22)), tinyGeom, 8)
	Freeze(m)
	before := m.Params()[0].Value.Clone()
	if _, err := Train(m, losses.Triplet{Margin: 0.2}, c.Train, DefaultTrainConfig()); !errors.Is(err, ErrFrozen) {
		t.Errorf("Train on a frozen model: err = %v, want ErrFrozen", err)
	}
	if _, err := Pretrain(m, c.Train, 3, DefaultTrainConfig()); !errors.Is(err, ErrFrozen) {
		t.Errorf("Pretrain on a frozen model: err = %v, want ErrFrozen", err)
	}
	if !sameBits(before, m.Params()[0].Value) {
		t.Error("a rejected training call changed the weights")
	}
}
