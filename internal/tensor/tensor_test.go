package tensor

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewShapeAndLen(t *testing.T) {
	cases := []struct {
		shape []int
		want  int
	}{
		{[]int{}, 1},
		{[]int{3}, 3},
		{[]int{2, 3}, 6},
		{[]int{4, 3, 2, 5}, 120},
	}
	for _, c := range cases {
		tt := New(c.shape...)
		if tt.Len() != c.want {
			t.Errorf("New(%v).Len() = %d, want %d", c.shape, tt.Len(), c.want)
		}
		if tt.Rank() != len(c.shape) {
			t.Errorf("New(%v).Rank() = %d, want %d", c.shape, tt.Rank(), len(c.shape))
		}
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(2, 0) did not panic")
		}
	}()
	New(2, 0)
}

func TestAtSetRoundTrip(t *testing.T) {
	tt := New(2, 3, 4)
	tt.Set(7.5, 1, 2, 3)
	if got := tt.At(1, 2, 3); got != 7.5 {
		t.Errorf("At(1,2,3) = %g, want 7.5", got)
	}
	if got := tt.At(0, 0, 0); got != 0 {
		t.Errorf("At(0,0,0) = %g, want 0", got)
	}
}

func TestOffsetRowMajor(t *testing.T) {
	tt := New(2, 3)
	// Row-major: (i,j) -> i*3 + j.
	if off := tt.Offset(1, 2); off != 5 {
		t.Errorf("Offset(1,2) = %d, want 5", off)
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	tt := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("At out of range did not panic")
		}
	}()
	tt.At(2, 0)
}

func TestFromAndData(t *testing.T) {
	tt := From([]float64{1, 2, 3, 4}, 2, 2)
	if tt.At(1, 1) != 4 {
		t.Errorf("At(1,1) = %g, want 4", tt.At(1, 1))
	}
	// From copies: mutating original slice must not affect tensor.
	src := []float64{9, 9}
	u := From(src, 2)
	src[0] = 0
	if u.At(0) != 9 {
		t.Error("From did not copy its input")
	}
	// Wrap aliases.
	w := Wrap(src, 2)
	src[1] = 42
	if w.At(1) != 42 {
		t.Error("Wrap did not alias its input")
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := From([]float64{1, 2, 3}, 3)
	b := a.Clone()
	b.Set(99, 0)
	if a.At(0) != 1 {
		t.Error("Clone shares storage with original")
	}
}

func TestReshapeAliases(t *testing.T) {
	a := From([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := a.Reshape(3, 2)
	b.Set(42, 0, 0)
	if a.At(0, 0) != 42 {
		t.Error("Reshape does not alias storage")
	}
	if b.At(2, 1) != 6 {
		t.Errorf("Reshape(3,2).At(2,1) = %g, want 6", b.At(2, 1))
	}
}

func TestSliceViewsFrame(t *testing.T) {
	// A "video" with 2 frames of 2x2.
	v := From([]float64{1, 2, 3, 4, 5, 6, 7, 8}, 2, 2, 2)
	f1 := v.Slice(1)
	if !f1.Equal(From([]float64{5, 6, 7, 8}, 2, 2), 0) {
		t.Errorf("Slice(1) = %v", f1)
	}
	f1.Set(0, 0, 0)
	if v.At(1, 0, 0) != 0 {
		t.Error("Slice does not alias parent storage")
	}
}

func TestAddSubMulScale(t *testing.T) {
	a := From([]float64{1, 2, 3, 4}, 2, 2)
	b := From([]float64{4, 3, 2, 1}, 2, 2)
	if got := a.Add(b); !got.Equal(From([]float64{5, 5, 5, 5}, 2, 2), 0) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); !got.Equal(From([]float64{-3, -1, 1, 3}, 2, 2), 0) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Mul(b); !got.Equal(From([]float64{4, 6, 6, 4}, 2, 2), 0) {
		t.Errorf("Mul = %v", got)
	}
	if got := a.Scale(2); !got.Equal(From([]float64{2, 4, 6, 8}, 2, 2), 0) {
		t.Errorf("Scale = %v", got)
	}
}

func TestAddScaled(t *testing.T) {
	a := From([]float64{1, 1}, 2)
	b := From([]float64{2, 4}, 2)
	a.AddScaled(0.5, b)
	if !a.Equal(From([]float64{2, 3}, 2), 1e-15) {
		t.Errorf("AddScaled = %v", a)
	}
}

func TestClamp(t *testing.T) {
	a := From([]float64{-5, 0, 5}, 3)
	got := a.Clamp(-1, 1)
	if !got.Equal(From([]float64{-1, 0, 1}, 3), 0) {
		t.Errorf("Clamp = %v", got)
	}
	if a.At(0) != -5 {
		t.Error("Clamp mutated receiver")
	}
	a.ClampInPlace(-1, 1)
	if a.At(0) != -1 {
		t.Error("ClampInPlace did not mutate receiver")
	}
}

// TestClampBuiltinMatchesMath pins the clamp Clamp and ClampInPlace use,
// max(lo, min(hi, v)) with the builtins, to math.Max(lo, math.Min(hi, v))
// bit for bit on signed zeros, infinities and the bounds themselves. A NaN
// stays a NaN; its payload is not pinned, since the builtins return
// whichever NaN the hardware produces and math.Max a canonical one.
func TestClampBuiltinMatchesMath(t *testing.T) {
	negZero, inf, nan := math.Copysign(0, -1), math.Inf(1), math.NaN()
	bounds := [][2]float64{{-1, 1}, {0, 255}, {negZero, 0}, {0, negZero}, {negZero, negZero}, {-inf, inf}, {-40, 40}, {2, 2}}
	vals := []float64{nan, 0, negZero, inf, -inf, 1, -1, 255, 256, -0.5, 0.5, 40, -40, math.SmallestNonzeroFloat64, -math.MaxFloat64}
	for _, b := range bounds {
		lo, hi := b[0], b[1]
		for _, v := range vals {
			want := math.Max(lo, math.Min(hi, v))
			same := func(got float64) bool {
				if math.IsNaN(want) {
					return math.IsNaN(got)
				}
				return math.Float64bits(got) == math.Float64bits(want)
			}
			if got := From([]float64{v}, 1).ClampInPlace(lo, hi).At(0); !same(got) {
				t.Errorf("ClampInPlace(%v, %v) of %v = %v (%#x), math gives %v (%#x)", lo, hi, v, got, math.Float64bits(got), want, math.Float64bits(want))
			}
			if got := From([]float64{v}, 1).Clamp(lo, hi).At(0); !same(got) {
				t.Errorf("Clamp(%v, %v) of %v = %v, math gives %v", lo, hi, v, got, want)
			}
		}
	}
}

func TestReductions(t *testing.T) {
	a := From([]float64{1, -2, 3, -4}, 4)
	if got := a.Sum(); got != -2 {
		t.Errorf("Sum = %g", got)
	}
	if got := a.Mean(); got != -0.5 {
		t.Errorf("Mean = %g", got)
	}
	if got := a.Max(); got != 3 {
		t.Errorf("Max = %g", got)
	}
	if got := a.Min(); got != -4 {
		t.Errorf("Min = %g", got)
	}
	if got := a.L1(); got != 10 {
		t.Errorf("L1 = %g", got)
	}
	if got := a.LInf(); got != 4 {
		t.Errorf("LInf = %g", got)
	}
	if got := a.SquaredL2(); got != 30 {
		t.Errorf("SquaredL2 = %g", got)
	}
	if got := a.L2(); math.Abs(got-math.Sqrt(30)) > 1e-12 {
		t.Errorf("L2 = %g", got)
	}
}

func TestL0AndL20(t *testing.T) {
	// 3 frames of 2 elems; frame 1 all zero.
	a := From([]float64{1, 0, 0, 0, 0, 2}, 3, 2)
	if got := a.L0(); got != 2 {
		t.Errorf("L0 = %d, want 2", got)
	}
	if got := a.L20(); got != 2 {
		t.Errorf("L20 = %d, want 2 (frames 0 and 2)", got)
	}
}

func TestDistanceAndCosine(t *testing.T) {
	a := From([]float64{1, 0}, 2)
	b := From([]float64{0, 1}, 2)
	if got := a.Distance(b); math.Abs(got-math.Sqrt2) > 1e-12 {
		t.Errorf("Distance = %g", got)
	}
}

func TestNormalize(t *testing.T) {
	a := From([]float64{3, 4}, 2)
	n := a.Normalize()
	if math.Abs(n.L2()-1) > 1e-12 {
		t.Errorf("Normalize L2 = %g", n.L2())
	}
	z := New(2)
	if got := z.Normalize(); got.L2() != 0 {
		t.Errorf("Normalize zero = %v", got)
	}
}

func TestArgsortAndTopK(t *testing.T) {
	vals := []float64{3, 1, 4, 1, 5}
	if desc := ArgsortDesc(vals); !slices.Equal(desc, []int{4, 2, 0, 1, 3}) {
		t.Fatalf("ArgsortDesc = %v", desc)
	}
	if top2 := TopK(vals, 2); !slices.Equal(top2, []int{4, 2}) {
		t.Errorf("TopK = %v", top2)
	}
	if got := TopK(vals, 100); len(got) != 5 {
		t.Errorf("TopK clamp: len = %d", len(got))
	}
}

// TestTopKMatchesStableArgsort pins TopK's selection path to the first k
// entries of ArgsortDesc for every k, on inputs dense in ties, signed
// zeros, infinities and NaNs.
func TestTopKMatchesStableArgsort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pool := []float64{0, math.Copysign(0, -1), 1, -1, math.Inf(1), math.Inf(-1), math.NaN()}
	for trial := 0; trial < 300; trial++ {
		vals := make([]float64, 1+rng.Intn(40))
		for i := range vals {
			vals[i] = rng.NormFloat64()
			if rng.Intn(2) == 0 {
				vals[i] = pool[rng.Intn(len(pool)-trial%2)] // odd trials draw no NaN
			}
		}
		want := ArgsortDesc(vals)
		for k := 0; k <= len(vals); k++ {
			if got := TopK(vals, k); !slices.Equal(got, want[:k]) {
				t.Fatalf("vals %v k=%d: TopK = %v, ArgsortDesc = %v", vals, k, got, want[:k])
			}
		}
	}
}

func TestFillRandomDeterminism(t *testing.T) {
	a := New(100).FillNormal(rand.New(rand.NewSource(7)), 0, 1)
	b := New(100).FillNormal(rand.New(rand.NewSource(7)), 0, 1)
	if !a.Equal(b, 0) {
		t.Error("same seed produced different tensors")
	}
}

// --- property-based tests -------------------------------------------------

func tensorFromVals(vals []float64) *Tensor {
	if len(vals) == 0 {
		vals = []float64{0}
	}
	clean := make([]float64, len(vals))
	for i, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		// Keep magnitudes sane so squared sums don't overflow.
		clean[i] = math.Mod(v, 1e6)
	}
	return From(clean, len(clean))
}

func TestPropAddCommutative(t *testing.T) {
	f := func(vals []float64) bool {
		a := tensorFromVals(vals)
		b := a.Scale(0.5)
		return a.Add(b).Equal(b.Add(a), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropSubSelfIsZero(t *testing.T) {
	f := func(vals []float64) bool {
		a := tensorFromVals(vals)
		return a.Sub(a).L2() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropTriangleInequality(t *testing.T) {
	f := func(vals []float64) bool {
		a := tensorFromVals(vals)
		b := a.Scale(-1)
		c := a.Scale(0.3)
		return a.Distance(b) <= a.Distance(c)+c.Distance(b)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropLInfBoundsAfterClamp(t *testing.T) {
	f := func(vals []float64, bound float64) bool {
		a := tensorFromVals(vals)
		tau := math.Abs(math.Mod(bound, 100)) + 0.1
		return a.Clamp(-tau, tau).LInf() <= tau+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropL0AtMostLen(t *testing.T) {
	f := func(vals []float64) bool {
		a := tensorFromVals(vals)
		l0 := a.L0()
		return l0 >= 0 && l0 <= a.Len()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropNormalizeUnit(t *testing.T) {
	f := func(vals []float64) bool {
		a := tensorFromVals(vals)
		n := a.Normalize().L2()
		return n == 0 || math.Abs(n-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
