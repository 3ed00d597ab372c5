package defense

import (
	"math/rand"
	"strings"
	"testing"

	"duo/internal/models"
	"duo/internal/nn/losses"
	"duo/internal/retrieval"
	"duo/internal/video"
)

func ensembleFixture(t *testing.T) (*retrieval.Engine, *retrieval.Engine, *fixture) {
	t.Helper()
	f := getFixture(t)
	// A second, independently seeded backbone over the same gallery.
	rng := rand.New(rand.NewSource(77))
	g := models.GeometryOf(f.corpus.Train[0])
	m2 := models.NewSlowFast(rng, g, 16)
	tc := models.DefaultTrainConfig()
	tc.Epochs = 2
	if _, err := models.Train(m2, losses.Triplet{Margin: 0.2}, f.corpus.Train, tc); err != nil {
		t.Fatal(err)
	}
	return retrieval.NewEngine(f.model, f.corpus.Train), retrieval.NewEngine(m2, f.corpus.Train), f
}

func TestEnsembleSingleMemberMatchesEngine(t *testing.T) {
	e1, _, f := ensembleFixture(t)
	ens := NewEnsemble(e1)
	q := f.corpus.Test[0]
	a := retrieval.IDs(e1.Retrieve(q, 5))
	b := retrieval.IDs(ens.Retrieve(q, 5))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("single-member ensemble differs at %d: %v vs %v", i, a, b)
		}
	}
}

func TestEnsembleFusesMembers(t *testing.T) {
	e1, e2, f := ensembleFixture(t)
	ens := NewEnsemble(e1, e2)
	if ens.Members() != 2 {
		t.Fatalf("members = %d", ens.Members())
	}
	q := f.corpus.Test[1]
	rs := ens.Retrieve(q, 6)
	if len(rs) != 6 {
		t.Fatalf("got %d results", len(rs))
	}
	// Fused dist is the fused rank.
	for i, r := range rs {
		if r.Dist != float64(i) {
			t.Errorf("fused rank %d has Dist %g", i, r.Dist)
		}
	}
	// Determinism.
	again := retrieval.IDs(ens.Retrieve(q, 6))
	for i, id := range retrieval.IDs(rs) {
		if id != again[i] {
			t.Fatal("ensemble retrieval not deterministic")
		}
	}
}

func TestEnsembleRetrievalQuality(t *testing.T) {
	e1, e2, f := ensembleFixture(t)
	ens := NewEnsemble(e1, e2)
	single := retrieval.EvaluateMAP(e1, f.corpus.Test, 6)
	fused := retrieval.EvaluateMAP(ens, f.corpus.Test, 6)
	// Fusion must not destroy retrieval quality (it usually helps).
	if fused < single-0.15 {
		t.Errorf("ensemble mAP %g far below single %g", fused, single)
	}
}

func TestEnsembleEmptyAndZeroM(t *testing.T) {
	_, _, f := ensembleFixture(t)
	if got := NewEnsemble().Retrieve(f.corpus.Test[0], 5); got != nil {
		t.Error("empty ensemble returned results")
	}
	e1, _, _ := ensembleFixture(t)
	if got := NewEnsemble(e1).Retrieve(f.corpus.Test[0], 0); len(got) != 0 {
		t.Error("m=0 returned results")
	}
}

// fixedList is a member that returns the same ranking for every query.
type fixedList []string

func (l fixedList) Retrieve(_ *video.Video, m int) []retrieval.Result {
	out := make([]retrieval.Result, 0, m)
	for i := 0; i < m && i < len(l); i++ {
		out = append(out, retrieval.Result{ID: l[i]})
	}
	return out
}

// TestEnsembleBreaksScoreTiesByID: two members with disjoint rankings
// give five pairs of equal Borda scores, over ten fused entries, more
// than a map's first eight-slot group holds, so the fusion map is walked
// in hash order. Each tie must go to the smaller ID on every call.
func TestEnsembleBreaksScoreTiesByID(t *testing.T) {
	ens := NewEnsemble(fixedList{"q", "o", "m", "k", "i"}, fixedList{"p", "n", "l", "j", "h"})
	const want = "p q n o l m j k h i"
	for i := 0; i < 20; i++ {
		if got := strings.Join(retrieval.IDs(ens.Retrieve(nil, 10)), " "); got != want {
			t.Fatalf("call %d fused %q, want %q", i, got, want)
		}
	}
}
