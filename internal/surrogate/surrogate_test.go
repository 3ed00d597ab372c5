package surrogate

import (
	"errors"
	"math/rand"
	"testing"

	"duo/internal/dataset"
	"duo/internal/models"
	"duo/internal/nn/losses"
	"duo/internal/retrieval"
)

// testVictim builds a small trained victim system.
func testVictim(t *testing.T) (*retrieval.Engine, *dataset.Corpus) {
	t.Helper()
	c, err := dataset.Generate(dataset.Config{
		Name: "StealSim", Categories: 4, TrainPerCategory: 6, TestPerCategory: 3,
		Frames: 8, Channels: 3, Height: 12, Width: 12, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(22))
	g := models.GeometryOf(c.Train[0])
	victim := models.NewSlowFast(rng, g, 16)
	cfg := models.DefaultTrainConfig()
	cfg.Epochs = 3
	if _, err := models.Train(victim, losses.Triplet{Margin: 0.2}, c.Train, cfg); err != nil {
		t.Fatal(err)
	}
	return retrieval.NewEngine(victim, c.Train), c
}

func TestStealProducesSamples(t *testing.T) {
	eng, c := testVictim(t)
	cfg := DefaultStealConfig()
	samples, err := Steal(eng, CorpusLookup(c.Train), c.Test, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 || len(samples) > cfg.MaxSamples {
		t.Fatalf("got %d samples, cap %d", len(samples), cfg.MaxSamples)
	}
	for _, s := range samples {
		if s.Anchor == nil || len(s.Ranked) < 2 {
			t.Fatal("malformed sample")
		}
	}
}

func TestStealUsesVictimQueries(t *testing.T) {
	eng, c := testVictim(t)
	eng.ResetQueryCount()
	if _, err := Steal(eng, CorpusLookup(c.Train), c.Test, DefaultStealConfig()); err != nil {
		t.Fatal(err)
	}
	if eng.QueryCount() == 0 {
		t.Error("stealing consumed no victim queries")
	}
}

func TestStealErrors(t *testing.T) {
	eng, c := testVictim(t)
	if _, err := Steal(eng, CorpusLookup(c.Train), nil, DefaultStealConfig()); err == nil {
		t.Error("empty pool accepted")
	}
	bad := DefaultStealConfig()
	bad.M = 1
	if _, err := Steal(eng, CorpusLookup(c.Train), c.Test, bad); err == nil {
		t.Error("m=1 accepted")
	}
}

func TestStealDeterministic(t *testing.T) {
	eng, c := testVictim(t)
	a, err := Steal(eng, CorpusLookup(c.Train), c.Test, DefaultStealConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Steal(eng, CorpusLookup(c.Train), c.Test, DefaultStealConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("sample counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Anchor.ID != b[i].Anchor.ID {
			t.Fatal("steal not deterministic")
		}
	}
}

func TestTrainReducesRankingLoss(t *testing.T) {
	eng, c := testVictim(t)
	samples, err := Steal(eng, CorpusLookup(c.Train), c.Test, DefaultStealConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	g := models.GeometryOf(c.Train[0])
	s := models.NewC3D(rng, g, 16)
	cfg := DefaultTrainConfig()
	cfg.Epochs = 4
	hist, err := Train(s, samples, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if hist[len(hist)-1] >= hist[0] {
		t.Errorf("surrogate loss did not decrease: %v", hist)
	}
}

func TestTrainEmptySamplesErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	s := models.NewC3D(rng, models.Geometry{Frames: 8, Channels: 3, Height: 12, Width: 12}, 8)
	if _, err := Train(s, nil, DefaultTrainConfig()); err == nil {
		t.Error("empty samples accepted")
	}
}

func TestTrainRejectsFrozenModel(t *testing.T) {
	c, err := dataset.Generate(dataset.Config{
		Name: "FrozenSim", Categories: 2, TrainPerCategory: 2, TestPerCategory: 1,
		Frames: 8, Channels: 3, Height: 12, Width: 12, Seed: 25,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := models.NewC3D(rand.New(rand.NewSource(26)), models.GeometryOf(c.Train[0]), 8)
	models.Freeze(s)
	samples := []Sample{{Anchor: c.Test[0], Ranked: c.Train[:3]}}
	if _, err := Train(s, samples, DefaultTrainConfig()); !errors.Is(err, models.ErrFrozen) {
		t.Errorf("Train on a frozen surrogate: err = %v, want models.ErrFrozen", err)
	}
}

func TestTrainedSurrogateAgreesMoreThanRandom(t *testing.T) {
	eng, c := testVictim(t)
	samples, err := Steal(eng, CorpusLookup(c.Train), c.Test, DefaultStealConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(25))
	g := models.GeometryOf(c.Train[0])
	s := models.NewC3D(rng, g, 16)
	before := Agreement(eng, s, c.Train, c.Test, 6)
	cfg := DefaultTrainConfig()
	cfg.Epochs = 6
	if _, err := Train(s, samples, cfg); err != nil {
		t.Fatal(err)
	}
	after := Agreement(eng, s, c.Train, c.Test, 6)
	if after < before-0.05 {
		t.Errorf("surrogate agreement degraded: %g → %g", before, after)
	}
	if after <= 0.2 {
		t.Errorf("surrogate agreement too low: %g", after)
	}
}

func TestCorpusLookup(t *testing.T) {
	_, c := testVictim(t)
	lk := CorpusLookup(c.Train)
	if v, ok := lk(c.Train[0].ID); !ok || v != c.Train[0] {
		t.Error("lookup miss for known ID")
	}
	if _, ok := lk("nope"); ok {
		t.Error("lookup hit for unknown ID")
	}
}
