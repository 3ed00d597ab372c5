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

// decorated is the shape of a decorator: a struct embedding Model, which
// BackwardFrames cannot see through.
type decorated struct{ Model }

// TestFrozenBackwardFramesMatchesFull pins BackwardFrames for every
// architecture, frozen, at the benchmark's clip geometry and at the core
// fixture's: on the kept frames dx carries Backward's bits, elsewhere it is
// exactly zero, for frame sets from none to all. C3D, I3D and the ResNets
// take the restricted input end; a decorator takes Backward and gets the
// full dx.
func TestFrozenBackwardFramesMatchesFull(t *testing.T) {
	restricted := map[string]bool{"C3D": true, "I3D": true, "Resnet18": true, "Resnet34": true, "CNNLSTM": true}
	for _, g := range []Geometry{{Frames: 16, Channels: 3, Height: 16, Width: 16}, tinyGeom} {
		for _, name := range Names() {
			rng := rand.New(rand.NewSource(41))
			m, err := Build(name, rng, g, 32)
			if err != nil {
				t.Fatal(err)
			}
			Freeze(m)
			x := tensor.RandUniform(rng, 0, 255, g.Frames, g.Channels, g.Height, g.Width)
			grad := tensor.RandNormal(rng, 0, 1, m.FeatureDim())
			_, c := m.Forward(x)
			full := m.Backward(c, grad)
			per := full.Len() / g.Frames

			sets := [][]bool{make([]bool, g.Frames), make([]bool, g.Frames)}
			for f := range sets[1] {
				sets[1][f] = true
			}
			for i := 0; i < 3; i++ {
				keep := make([]bool, g.Frames)
				for f := range keep {
					keep[f] = rng.Intn(2) == 0
				}
				sets = append(sets, keep)
			}
			for _, keep := range sets {
				if _, ok := nn.BackwardFrames(m.(*netModel).net, c, grad, keep); ok != restricted[name] {
					t.Errorf("%s %v: restricted path taken = %v, want %v", name, g, ok, restricted[name])
				}
				dx := BackwardFrames(m, c, grad, keep)
				for f, k := range keep {
					got, want := dx.Data()[f*per:(f+1)*per], full.Data()[f*per:(f+1)*per]
					for i := range got {
						if k && math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("%s %v keep=%v: kept frame %d element %d = %v, Backward gives %v", name, g, keep, f, i, got[i], want[i])
						}
						if !k && math.Float64bits(got[i]) != 0 {
							t.Fatalf("%s %v keep=%v: skipped frame %d element %d = %v, want +0", name, g, keep, f, i, got[i])
						}
					}
				}
				if dx := BackwardFrames(decorated{m}, c, grad, keep); !sameBits(full, dx) {
					t.Errorf("%s %v keep=%v: a decorated model's dx differs from Backward's", name, g, keep)
				}
			}
		}
	}
}
