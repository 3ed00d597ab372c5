package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"testing"
)

// testdata/istep_scores.bin holds the eight ℐ-step score vectors of
// TestGoldenPipeline's SparseTransfer call (four outer iterations, twice
// through iter_numH; d = 1800, k = 270) as little-endian float64. They were
// recorded while the ℐ-step was still an ℓp-box ADMM solver (with a
// 1e-9·|θ| tie-break nudge in the scores), which hit its iteration cap on
// seven of them and returned a mask 4–46 coordinates off the optimum, with
// a linear objective up to 15 % worse, on all eight.
const recordedD, recordedK = 1800, 270

// checkExact runs the production ℐ-step selection and requires the mask
// and the objective cᵀx (c = −score) of a sort-everything brute force, bit
// for bit.
func checkExact(t *testing.T, name string, score []float64, k int) []float64 {
	t.Helper()
	idx := make([]int, len(score))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if sa, sb := score[idx[a]], score[idx[b]]; sa != sb {
			return sa > sb
		}
		return idx[a] < idx[b]
	})
	want := make([]float64, len(score))
	for _, i := range idx[:k] {
		want[i] = 1
	}
	got := make([]float64, len(score))
	for i := range got {
		got[i] = -1 // selectPixels must overwrite every element
	}
	selectPixels(got, score, k)
	if !slices.Equal(got, want) {
		t.Errorf("%s: selectPixels mask differs from the brute force", name)
	}
	objective := func(mask []float64) (obj float64) {
		for i, on := range mask {
			if on == 1 {
				obj -= score[i]
			}
		}
		return obj
	}
	if g, w := objective(got), objective(want); math.Float64bits(g) != math.Float64bits(w) {
		t.Errorf("%s: objective %v, brute force %v", name, g, w)
	}
	return got
}

func TestPixelStepIsExactOnRecordedScores(t *testing.T) {
	raw, err := os.ReadFile("testdata/istep_scores.bin")
	if err != nil {
		t.Fatal(err)
	}
	flat := make([]float64, 8*recordedD)
	if err := binary.Read(bytes.NewReader(raw), binary.LittleEndian, flat); err != nil || len(raw) != 8*len(flat) {
		t.Fatalf("istep_scores.bin: %d bytes, want 8 vectors of %d float64 (%v)", len(raw), recordedD, err)
	}
	for v := range 8 {
		for _, k := range []int{recordedK, 1, recordedD} {
			checkExact(t, fmt.Sprintf("vector %d k=%d", v, k), flat[v*recordedD:(v+1)*recordedD], k)
		}
	}
}

func TestPixelStepEdgeCases(t *testing.T) {
	for _, c := range []struct {
		name        string
		score, want []float64
		k           int
	}{
		{"all-zero", make([]float64, 6), []float64{1, 1, 1, 0, 0, 0}, 3},
		{"tie at the cut", []float64{1, 5, 3, 3, 3, 0}, []float64{0, 1, 1, 1, 0, 0}, 3},
		{"k=1 tied maximum", []float64{2, 7, 7, 1}, []float64{0, 1, 0, 0}, 1},
		{"k=d", []float64{2, 7, 7, 1}, []float64{1, 1, 1, 1}, 4},
	} {
		if got := checkExact(t, c.name, c.score, c.k); !slices.Equal(got, c.want) {
			t.Errorf("%s: mask %v, want %v (ties to the lower index)", c.name, got, c.want)
		}
	}
}
