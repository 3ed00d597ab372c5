package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSoftmaxSumsToOne(t *testing.T) {
	p := Softmax([]float64{1, 2, 3})
	sum := 0.0
	for _, v := range p {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("softmax sum = %g", sum)
	}
	if !(p[2] > p[1] && p[1] > p[0]) {
		t.Errorf("softmax not monotone: %v", p)
	}
}

func TestSoftmaxStableForLargeInputs(t *testing.T) {
	p := Softmax([]float64{1000, 1000, 1000})
	for _, v := range p {
		if math.IsNaN(v) || math.Abs(v-1.0/3) > 1e-9 {
			t.Fatalf("softmax unstable: %v", p)
		}
	}
}

func TestLogSumExp(t *testing.T) {
	got := LogSumExp([]float64{0, 0})
	if math.Abs(got-math.Log(2)) > 1e-12 {
		t.Errorf("LogSumExp = %g, want log 2", got)
	}
	if got := LogSumExp(nil); !math.IsInf(got, -1) {
		t.Errorf("LogSumExp(nil) = %g", got)
	}
	// Shift invariance: lse(x+c) = lse(x)+c.
	a := LogSumExp([]float64{1, 2, 3})
	b := LogSumExp([]float64{101, 102, 103})
	if math.Abs(b-a-100) > 1e-9 {
		t.Errorf("shift invariance broken: %g vs %g", a, b)
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Error("Clamp misbehaves")
	}
}

func TestPropSoftmaxProbabilities(t *testing.T) {
	f := func(x []float64) bool {
		if len(x) == 0 {
			return true
		}
		for i, v := range x {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				x[i] = 0
			}
			x[i] = math.Mod(x[i], 500)
		}
		p := Softmax(x)
		sum := 0.0
		for _, v := range p {
			if v < 0 || v > 1 || math.IsNaN(v) {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDCTVectorOrthonormal(t *testing.T) {
	const n = 8
	for a := 0; a < n; a++ {
		for b := a; b < n; b++ {
			va, vb := DCTVector(n, a), DCTVector(n, b)
			dot := 0.0
			for i := range va {
				dot += va[i] * vb[i]
			}
			want := 0.0
			if a == b {
				want = 1
			}
			if math.Abs(dot-want) > 1e-12 {
				t.Fatalf("⟨v%d, v%d⟩ = %g, want %g", a, b, dot, want)
			}
		}
	}
}

func TestDCTVectorDCIsConstant(t *testing.T) {
	v := DCTVector(5, 0)
	for _, x := range v[1:] {
		if math.Abs(x-v[0]) > 1e-12 {
			t.Fatalf("DC vector not constant: %v", v)
		}
	}
}

func TestDCTBasis2DOrthonormal(t *testing.T) {
	// Unit norm and orthogonality of a couple of 2-D bases.
	dot := func(a, b [][]float64) float64 {
		s := 0.0
		for y := range a {
			for x := range a[y] {
				s += a[y][x] * b[y][x]
			}
		}
		return s
	}
	b00 := DCTBasis2D(4, 6, 0, 0)
	b12 := DCTBasis2D(4, 6, 1, 2)
	if math.Abs(dot(b00, b00)-1) > 1e-12 || math.Abs(dot(b12, b12)-1) > 1e-12 {
		t.Error("2-D DCT bases not unit norm")
	}
	if math.Abs(dot(b00, b12)) > 1e-12 {
		t.Error("2-D DCT bases not orthogonal")
	}
}
