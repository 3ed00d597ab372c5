package core

import (
	"bytes"
	"math/rand"
	"testing"

	"duo/internal/attack"
	"duo/internal/retrieval"
	"duo/internal/trace"
	"duo/internal/video"
)

// retrieverOnly hides every optional victim interface (BatchRetriever,
// FallibleRetriever) behind plain Retrieve.
type retrieverOnly struct{ r retrieval.Retriever }

func (w retrieverOnly) Retrieve(v *video.Video, m int) []retrieval.Result {
	return w.r.Retrieve(v, m)
}

// alwaysOK lifts an infallible victim to a FallibleRetriever whose error is
// always nil.
type alwaysOK struct{ retrieverOnly }

func (w alwaysOK) RetrieveErr(v *video.Video, m int) ([]retrieval.Result, error) {
	return w.Retrieve(v, m), nil
}

func runSparseQuery(t *testing.T, f *fixture, victim retrieval.Retriever, seed int64, cfg QueryConfig, tr *trace.Tracer) *QueryResult {
	t.Helper()
	masks, err := SparseTransfer(f.surr, f.origin, f.target, testTransferConfig(f.geom))
	if err != nil {
		t.Fatal(err)
	}
	ctx := &attack.Context{Victim: victim, M: f.m, Rng: rand.New(rand.NewSource(seed)), Trace: tr}
	qr, err := SparseQuery(ctx, f.origin, f.target, masks, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return qr
}

func expectSameResult(t *testing.T, name string, a, b *QueryResult) {
	t.Helper()
	if a.Queries != b.Queries {
		t.Fatalf("%s: queries %d vs %d", name, a.Queries, b.Queries)
	}
	if len(a.Trajectory) != len(b.Trajectory) {
		t.Fatalf("%s: trajectory length %d vs %d", name, len(a.Trajectory), len(b.Trajectory))
	}
	for i := range a.Trajectory {
		if a.Trajectory[i] != b.Trajectory[i] {
			t.Fatalf("%s: trajectory[%d] = %v vs %v", name, i, a.Trajectory[i], b.Trajectory[i])
		}
	}
	ad, bd := a.Adv.Data.Data(), b.Adv.Data.Data()
	for i := range ad {
		if ad[i] != bd[i] {
			t.Fatalf("%s: adversarial video differs at element %d: %v vs %v", name, i, ad[i], bd[i])
		}
	}
}

// TestSparseQueryHiddenBatcherEquivalence: a victim that also implements
// BatchRetriever must look exactly like one that only exposes Retrieve —
// same adversarial video, same trajectory, same bill.
func TestSparseQueryHiddenBatcherEquivalence(t *testing.T) {
	f := getFixture(t)
	cfg := testQueryConfig()
	batched := runSparseQuery(t, f, f.victim, 7, cfg, nil)
	plain := runSparseQuery(t, f, retrieverOnly{f.victim}, 7, cfg, nil)
	expectSameResult(t, "hidden batcher", batched, plain)
}

// TestSparseQueryOneLoopServesInfallibleAndFallibleVictims is the proof that
// the oracle's single retrieve loop equals both branches it replaced: one
// seeded round against an Engine and against the same engine wrapped as an
// always-nil-error FallibleRetriever yields identical Adv bits, Queries and
// Trajectory, and an identical span tree — every retrieve leaf a
// `queries=1 outcome=ok` under the same parent at the same tick.
func TestSparseQueryOneLoopServesInfallibleAndFallibleVictims(t *testing.T) {
	f := getFixture(t)
	cfg := testQueryConfig()
	var dumps [2]bytes.Buffer
	var results [2]*QueryResult
	for i, victim := range []retrieval.Retriever{f.victim, alwaysOK{retrieverOnly{f.victim}}} {
		tr := trace.New("one-loop")
		results[i] = runSparseQuery(t, f, victim, 29, cfg, tr)
		if err := tr.WriteJSONL(&dumps[i]); err != nil {
			t.Fatal(err)
		}
		leaves := 0
		for _, r := range tr.Records() {
			if r.Name != "retrieve" {
				continue
			}
			leaves++
			if n, _ := r.Int("queries"); n != 1 || r.Attrs["outcome"] != "ok" {
				t.Fatalf("victim %d: retrieve leaf %+v, want queries=1 outcome=ok", i, r.Attrs)
			}
		}
		if leaves != results[i].Queries {
			t.Errorf("victim %d: %d retrieve leaves for %d billed queries", i, leaves, results[i].Queries)
		}
	}
	expectSameResult(t, "engine vs always-ok fallible", results[0], results[1])
	if !bytes.Equal(dumps[0].Bytes(), dumps[1].Bytes()) {
		t.Error("span trees differ between the infallible and the fallible victim")
	}
}
