package models

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"duo/internal/dataset"
	"duo/internal/nn/losses"
	"duo/internal/tensor"
	"duo/internal/video"
)

var tinyGeom = Geometry{Frames: 8, Channels: 3, Height: 12, Width: 12}

func TestAllArchitecturesForwardShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := tensor.RandUniform(rng, 0, 255, tinyGeom.Frames, tinyGeom.Channels, tinyGeom.Height, tinyGeom.Width)
	for _, name := range Names() {
		m, err := Build(name, rng, tinyGeom, 16)
		if err != nil {
			t.Fatal(err)
		}
		e, _ := m.Forward(x)
		if e.Rank() != 1 || e.Dim(0) != 16 {
			t.Errorf("%s: embedding shape %v, want [16]", name, e.Shape())
		}
		if m.FeatureDim() != 16 {
			t.Errorf("%s: FeatureDim = %d", name, m.FeatureDim())
		}
		if m.Name() != name {
			t.Errorf("Build(%q).Name() = %q", name, m.Name())
		}
		for _, v := range e.Data() {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%s: embedding has NaN/Inf", name)
			}
		}
	}
}

func TestBuildUnknownArchitecture(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	_, err := Build("AlexNet", rng, tinyGeom, 8)
	if err == nil {
		t.Fatal("unknown architecture accepted")
	}
	// The registry map holds its seven names out of order; the list must
	// come back sorted on every call.
	const want = "(have [C3D CNNLSTM I3D Resnet18 Resnet34 SlowFast TPN])"
	if !strings.HasSuffix(err.Error(), want) {
		t.Errorf("error %q does not end in the sorted list %s", err, want)
	}
}

func TestArchitecturesAreDistinct(t *testing.T) {
	// Different architectures built from the same seed must produce
	// different embeddings for the same input: they are distinct maps.
	x := tensor.RandUniform(rand.New(rand.NewSource(2)), 0, 255,
		tinyGeom.Frames, tinyGeom.Channels, tinyGeom.Height, tinyGeom.Width)
	var prev *tensor.Tensor
	for _, name := range Names() {
		m, _ := Build(name, rand.New(rand.NewSource(3)), tinyGeom, 16)
		e, _ := m.Forward(x)
		if prev != nil && e.Equal(prev, 1e-9) {
			t.Errorf("%s produced identical embedding to previous architecture", name)
		}
		prev = e
	}
}

func TestInputGradientFlowsToAllFrames(t *testing.T) {
	// Backward must reach every frame's pixels (needed by SparseTransfer).
	rng := rand.New(rand.NewSource(4))
	for _, name := range []string{"C3D", "SlowFast", "TPN", "Resnet18", "CNNLSTM"} {
		m, _ := Build(name, rng, tinyGeom, 8)
		x := tensor.RandUniform(rng, 0, 255, tinyGeom.Frames, tinyGeom.Channels, tinyGeom.Height, tinyGeom.Width)
		e, c := m.Forward(x)
		g := tensor.RandNormal(rng, 0, 1, e.Shape()...)
		dx := m.Backward(c, g)
		if !dx.SameShape(x) {
			t.Fatalf("%s: input grad shape %v", name, dx.Shape())
		}
		for f := 0; f < tinyGeom.Frames; f++ {
			if dx.Slice(f).L2() == 0 {
				t.Errorf("%s: zero gradient at frame %d", name, f)
			}
		}
	}
}

func TestModelGradcheckAgainstNumeric(t *testing.T) {
	// Spot-check C3D's input gradient against finite differences on a few
	// random coordinates (full checks live in package nn).
	rng := rand.New(rand.NewSource(5))
	g := Geometry{Frames: 4, Channels: 1, Height: 6, Width: 6}
	m := NewC3D(rng, g, 4)
	x := tensor.RandUniform(rng, 0, 255, g.Frames, g.Channels, g.Height, g.Width)
	w := tensor.RandNormal(rng, 0, 1, 4)
	e, c := m.Forward(x)
	_ = e
	dx := m.Backward(c, w)
	lossAt := func() float64 {
		y, _ := m.Forward(x)
		return y.Dot(w)
	}
	const h = 1e-4
	for trial := 0; trial < 10; trial++ {
		i := rng.Intn(x.Len())
		orig := x.Data()[i]
		x.Data()[i] = orig + h
		up := lossAt()
		x.Data()[i] = orig - h
		down := lossAt()
		x.Data()[i] = orig
		num := (up - down) / (2 * h)
		if math.Abs(num-dx.Data()[i]) > 1e-4*(1+math.Abs(num)) {
			t.Fatalf("grad[%d]: analytic %g vs numeric %g", i, dx.Data()[i], num)
		}
	}
}

func trainTinyCorpus(t *testing.T) *dataset.Corpus {
	t.Helper()
	c, err := dataset.Generate(dataset.Config{
		Name: "TrainSim", Categories: 3, TrainPerCategory: 5, TestPerCategory: 2,
		Frames: tinyGeom.Frames, Channels: tinyGeom.Channels,
		Height: tinyGeom.Height, Width: tinyGeom.Width, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestTrainReducesLoss(t *testing.T) {
	c := trainTinyCorpus(t)
	rng := rand.New(rand.NewSource(6))
	m := NewC3D(rng, tinyGeom, 8)
	cfg := DefaultTrainConfig()
	cfg.Epochs = 4
	hist, err := Train(m, losses.Triplet{Margin: 0.2}, c.Train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 4 {
		t.Fatalf("history length %d", len(hist))
	}
	if hist[len(hist)-1] >= hist[0] {
		t.Errorf("loss did not decrease: %v", hist)
	}
}

// TestTrainIgnoresLabelArrivalOrder trains twice on the same videos of
// five categories, once with the categories first met in ascending order
// and once in descending order, each category's own videos in the same
// order both times. Train samples categories from its label list, so the
// two models are bit-identical only if that list does not follow the
// order a map of labels is walked in.
func TestTrainIgnoresLabelArrivalOrder(t *testing.T) {
	c, err := dataset.Generate(dataset.Config{
		Name: "TrainOrder", Categories: 5, TrainPerCategory: 2, TestPerCategory: 1,
		Frames: tinyGeom.Frames, Channels: tinyGeom.Channels,
		Height: tinyGeom.Height, Width: tinyGeom.Width, Seed: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	byLabel := dataset.ByLabel(c.Train)
	var up, down []*video.Video
	for j := 0; j < 2; j++ {
		for l := 0; l < 5; l++ {
			up = append(up, byLabel[l][j])
			down = append(down, byLabel[4-l][j])
		}
	}
	cfg := DefaultTrainConfig()
	cfg.Epochs, cfg.StepsPerEpoch = 1, 4
	train := func(vids []*video.Video) Model {
		m := NewC3D(rand.New(rand.NewSource(13)), tinyGeom, 8)
		if _, err := Train(m, losses.Triplet{Margin: 0.2}, vids, cfg); err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := train(up).Params(), train(down).Params()
	for i := range a {
		if !a[i].Value.Equal(b[i].Value, 0) {
			t.Fatalf("param %s differs with the categories met in another order", a[i].Name)
		}
	}
}

func TestTrainErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := NewC3D(rng, tinyGeom, 8)
	if _, err := Train(m, losses.Triplet{Margin: 0.2}, nil, DefaultTrainConfig()); err == nil {
		t.Error("empty training set accepted")
	}
	c := trainTinyCorpus(t)
	oneClass := dataset.ByLabel(c.Train)[0]
	if _, err := Train(m, losses.Triplet{Margin: 0.2}, oneClass, DefaultTrainConfig()); err == nil {
		t.Error("single-category training set accepted")
	}
}

func TestTrainImprovesSeparation(t *testing.T) {
	// After training, same-class embeddings should be relatively closer
	// than before (the retrieval property everything else depends on).
	c := trainTinyCorpus(t)
	rng := rand.New(rand.NewSource(8))
	m := NewSlowFast(rng, tinyGeom, 8)

	ratio := func() float64 {
		by := dataset.ByLabel(c.Test)
		intra, inter := 0.0, 0.0
		ni, nx := 0, 0
		embs := map[int][]*tensor.Tensor{}
		for l, vs := range by {
			for _, v := range vs {
				embs[l] = append(embs[l], Embed(m, v))
			}
		}
		for l, es := range embs {
			for i := range es {
				for j := i + 1; j < len(es); j++ {
					intra += es[i].Distance(es[j])
					ni++
				}
				for l2, es2 := range embs {
					if l2 == l {
						continue
					}
					inter += es[i].Distance(es2[0])
					nx++
				}
			}
		}
		return (intra / float64(ni)) / (inter / float64(nx))
	}

	before := ratio()
	cfg := DefaultTrainConfig()
	cfg.Epochs = 5
	if _, err := Train(m, losses.Triplet{Margin: 0.2}, c.Train, cfg); err != nil {
		t.Fatal(err)
	}
	after := ratio()
	// The random init already separates categories (the synthetic classes
	// are pixel-separable), so training need not shrink the ratio — but it
	// must keep embeddings clustered by category.
	if after > 0.5 {
		t.Errorf("intra/inter ratio after training = %g (> 0.5); before = %g", after, before)
	}
	if after > 3*before {
		t.Errorf("training destroyed separation: %g → %g", before, after)
	}
}

func TestCNNLSTMTrainable(t *testing.T) {
	// The Fig. 1 reference model (CNN + LSTM) must train like the rest.
	c := trainTinyCorpus(t)
	rng := rand.New(rand.NewSource(9))
	m := NewCNNLSTM(rng, tinyGeom, 8)
	cfg := DefaultTrainConfig()
	cfg.Epochs = 3
	hist, err := Train(m, losses.Triplet{Margin: 0.2}, c.Train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if hist[len(hist)-1] >= hist[0] {
		t.Errorf("CNNLSTM loss did not decrease: %v", hist)
	}
}

func TestPretrainBeatsChance(t *testing.T) {
	c := trainTinyCorpus(t)
	rng := rand.New(rand.NewSource(14))
	m := NewC3D(rng, tinyGeom, 8)
	cfg := DefaultTrainConfig()
	cfg.Epochs = 5
	acc, err := Pretrain(m, c.Train, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if acc <= 1.0/3+0.1 {
		t.Errorf("pretraining accuracy %g barely above chance", acc)
	}
}

func TestPretrainValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	m := NewC3D(rng, tinyGeom, 8)
	if _, err := Pretrain(m, nil, 1, DefaultTrainConfig()); err == nil {
		t.Error("1-class pretraining accepted")
	}
}
