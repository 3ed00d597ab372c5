package main

import (
	"fmt"
	"math"
	"sort"

	"duo/internal/models"
	"duo/internal/retrieval"
	"duo/internal/video"
)

// tally counts operations and correctness checks and the ones that failed;
// it keeps the first few failure descriptions for the report.
type tally struct {
	attempted, failed int
	notes             []string
}

const maxNotes = 8

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.notes) < maxNotes {
		t.notes = append(t.notes, fmt.Sprintf(format, args...))
	}
}

// check counts one attempt and, when ok is false, one failure.
func (t *tally) check(ok bool, format string, args ...any) {
	t.attempted++
	if !ok {
		t.fail(format, args...)
	}
}

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for _, n := range o.notes {
		if len(t.notes) < maxNotes {
			t.notes = append(t.notes, n)
		}
	}
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// resultBefore is the service-wide answer order: ascending distance, ties by ID.
func resultBefore(a, b retrieval.Result) bool {
	if !sameFloat(a.Dist, b.Dist) {
		return a.Dist < b.Dist
	}
	return a.ID < b.ID
}

// wellFormed reports whether an answer has exactly m rows in strictly
// ascending (Dist, ID) order.
func wellFormed(rs []retrieval.Result, m int) bool {
	if len(rs) != m {
		return false
	}
	for i := 1; i < len(rs); i++ {
		if !resultBefore(rs[i-1], rs[i]) {
			return false
		}
	}
	return true
}

// bruteForce is the reference answer: embed the clip with the untraced
// extractor, score every gallery row, sort everything, keep m.
func bruteForce(raw models.Model, gallery []row, v *video.Video, m int) []retrieval.Result {
	q := models.Embed(raw, v)
	all := make([]retrieval.Result, len(gallery))
	for i, r := range gallery {
		all[i] = retrieval.Result{ID: r.ID, Label: r.Label, Dist: q.Distance(r.Feat)}
	}
	sort.Slice(all, func(a, b int) bool { return resultBefore(all[a], all[b]) })
	return all[:min(m, len(all))]
}

func sameAnswer(a, b []retrieval.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Label != b[i].Label || !sameFloat(a[i].Dist, b[i].Dist) {
			return false
		}
	}
	return true
}

// bruteForceChecks is how many distinct queries' answers are compared with
// the brute-force reference per run.
const bruteForceChecks = 64

// checkAnswers compares the recorded first answer of each distinct query
// (nil where the run never issued it) with the brute-force reference.
func (fx *fixture) checkAnswers(t *tally, pool []*video.Video, first [][]retrieval.Result) {
	checked := 0
	for i, rs := range first {
		if rs == nil {
			continue
		}
		if checked == bruteForceChecks {
			return
		}
		checked++
		t.check(sameAnswer(rs, bruteForce(fx.raw, fx.gallery, pool[i], fx.z.M)),
			"answer for %s differs from the brute-force reference", pool[i].ID)
	}
}
