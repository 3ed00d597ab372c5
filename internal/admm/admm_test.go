package admm

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func countTrue(m []bool) int {
	n := 0
	for _, v := range m {
		if v {
			n++
		}
	}
	return n
}

// bruteForceOptimum returns the optimal objective: sum of the k smallest
// costs.
func bruteForceOptimum(c []float64, k int) float64 {
	s := append([]float64(nil), c...)
	sort.Float64s(s)
	sum := 0.0
	for i := 0; i < k; i++ {
		sum += s[i]
	}
	return sum
}

func TestMinimizeCardinalityOptimal(t *testing.T) {
	c := []float64{5, 1, 3, 2, 4}
	res, err := MinimizeCardinality(c, 2, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if countTrue(res.X) != 2 {
		t.Fatalf("cardinality = %d", countTrue(res.X))
	}
	if !res.X[1] || !res.X[3] {
		t.Errorf("selected %v, want indices 1 and 3", res.X)
	}
	if res.Objective != 3 {
		t.Errorf("objective = %g, want 3", res.Objective)
	}
}

func TestMinimizeCardinalityRandomMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		d := 10 + rng.Intn(30)
		k := 1 + rng.Intn(d-1)
		c := make([]float64, d)
		for i := range c {
			c[i] = rng.NormFloat64()
		}
		res, err := MinimizeCardinality(c, k, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if countTrue(res.X) != k {
			t.Fatalf("trial %d: cardinality %d, want %d", trial, countTrue(res.X), k)
		}
		want := bruteForceOptimum(c, k)
		// The ADMM relaxation should land on (or extremely near) the
		// optimum for this separable objective.
		if res.Objective > want+1e-6 {
			t.Errorf("trial %d: objective %g > optimum %g", trial, res.Objective, want)
		}
	}
}

func TestMinimizeCardinalityEdgeCases(t *testing.T) {
	c := []float64{1, 2, 3}
	res, err := MinimizeCardinality(c, 0, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if countTrue(res.X) != 0 || res.Objective != 0 {
		t.Errorf("k=0: %v, obj %g", res.X, res.Objective)
	}
	res, err = MinimizeCardinality(c, 3, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if countTrue(res.X) != 3 || res.Objective != 6 {
		t.Errorf("k=d: %v, obj %g", res.X, res.Objective)
	}
}

func TestMinimizeCardinalityErrors(t *testing.T) {
	if _, err := MinimizeCardinality(nil, 0, DefaultConfig()); err == nil {
		t.Error("empty cost accepted")
	}
	if _, err := MinimizeCardinality([]float64{1}, 2, DefaultConfig()); err == nil {
		t.Error("k > d accepted")
	}
	if _, err := MinimizeCardinality([]float64{1}, -1, DefaultConfig()); err == nil {
		t.Error("negative k accepted")
	}
}

func TestMinimizeCardinalityZeroConfigUsesDefaults(t *testing.T) {
	res, err := MinimizeCardinality([]float64{2, 1}, 1, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.X[1] || res.X[0] {
		t.Errorf("zero config: %v", res.X)
	}
}

func TestTopKByScore(t *testing.T) {
	mask := TopKByScore([]float64{5, 1, 3}, 1)
	if !mask[1] || mask[0] || mask[2] {
		t.Errorf("TopKByScore = %v", mask)
	}
}

func TestPropCardinalityAlwaysExact(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 5 + int(kRaw%20)
		k := int(kRaw) % (d + 1)
		c := make([]float64, d)
		for i := range c {
			c[i] = rng.NormFloat64() * 10
		}
		res, err := MinimizeCardinality(c, k, DefaultConfig())
		if err != nil {
			return false
		}
		return countTrue(res.X) == k
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropADMMNotWorseThanRandom(t *testing.T) {
	// The solver must never pick a set whose cost exceeds the mean random
	// k-subset cost (sanity floor far above optimal).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 20
		k := 5
		c := make([]float64, d)
		mean := 0.0
		for i := range c {
			c[i] = rng.Float64() * 10
			mean += c[i]
		}
		mean = mean / float64(d) * float64(k)
		res, err := MinimizeCardinality(c, k, DefaultConfig())
		if err != nil {
			return false
		}
		return res.Objective <= mean+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// refTopKMask is the partial selection sort topKMask used to be, kept as
// the oracle for tie-free inputs. Its swaps reorder equal values, so under
// ties it does NOT break toward the lower index (x = [1, 3, 1, 9], k = 3
// picks {3, 1, 2}); the differential test below therefore stays tie-free.
func refTopKMask(x []float64, k int) []bool {
	mask := make([]bool, len(x))
	if k <= 0 {
		return mask
	}
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	for s := 0; s < k; s++ {
		best := s
		for j := s + 1; j < len(idx); j++ {
			if x[idx[j]] > x[idx[best]] {
				best = j
			}
		}
		idx[s], idx[best] = idx[best], idx[s]
		mask[idx[s]] = true
	}
	return mask
}

// refMinimizeCardinality is MinimizeCardinality as it stood before the
// iteration loop was made allocation-free: a fresh r every iteration,
// math.Max/Min for the box projection, refTopKMask for the binarization.
func refMinimizeCardinality(c []float64, k int, cfg Config) *Result {
	d := len(c)
	x := make([]float64, d)
	y1 := make([]float64, d)
	y2 := make([]float64, d)
	z1 := make([]float64, d)
	z2 := make([]float64, d)
	z3 := 0.0
	for i := range x {
		x[i] = float64(k) / float64(d)
		y1[i], y2[i] = x[i], x[i]
	}
	rho := cfg.Rho
	rhoC := cfg.RhoCard
	radius := math.Sqrt(float64(d)) / 2

	res := &Result{}
	for it := 0; it < cfg.MaxIter; it++ {
		res.Iterations = it + 1
		for i := range y1 {
			v := x[i] + z1[i]/rho
			y1[i] = math.Max(0, math.Min(1, v))
		}
		norm := 0.0
		for i := range y2 {
			v := x[i] + z2[i]/rho - 0.5
			y2[i] = v
			norm += v * v
		}
		norm = math.Sqrt(norm)
		if norm < 1e-12 {
			for i := range y2 {
				y2[i] = 0.5
			}
			y2[0] = 0.5 + radius
		} else {
			s := radius / norm
			for i := range y2 {
				y2[i] = 0.5 + y2[i]*s
			}
		}
		a := 2 * rho
		b := rhoC
		sumR := 0.0
		r := make([]float64, d)
		for i := range r {
			r[i] = rho*(y1[i]+y2[i]) - c[i] - z1[i] - z2[i] - z3 + b*float64(k)
			sumR += r[i]
		}
		corr := b / (a * (a + b*float64(d))) * sumR
		sumX := 0.0
		maxR1 := 0.0
		maxR2 := 0.0
		for i := range x {
			x[i] = r[i]/a - corr
			sumX += x[i]
		}
		for i := range x {
			r1 := x[i] - y1[i]
			r2 := x[i] - y2[i]
			z1[i] += rho * r1
			z2[i] += rho * r2
			if math.Abs(r1) > maxR1 {
				maxR1 = math.Abs(r1)
			}
			if math.Abs(r2) > maxR2 {
				maxR2 = math.Abs(r2)
			}
		}
		z3 += rhoC * (sumX - float64(k))
		rho *= cfg.RhoGrowth
		rhoC *= cfg.RhoGrowth
		if maxR1 < cfg.Tol && maxR2 < cfg.Tol {
			res.Converged = true
			break
		}
	}
	res.X = refTopKMask(x, k)
	for i, on := range res.X {
		if on {
			res.Objective += c[i]
		}
	}
	return res
}

func trueIndices(m []bool) []int {
	var out []int
	for i, v := range m {
		if v {
			out = append(out, i)
		}
	}
	return out
}

func TestTopKMaskTieBreaksTowardLowerIndex(t *testing.T) {
	cases := []struct {
		name string
		x    []float64
		k    int
		want []int
	}{
		// The swap-based selection sort moved index 0 behind index 2 here
		// and picked {1, 2, 3}.
		{"displaced tie", []float64{1, 3, 1, 9}, 3, []int{0, 1, 3}},
		{"all equal", []float64{4, 4, 4, 4, 4, 4, 4}, 3, []int{0, 1, 2}},
		{"tie straddles the cut", []float64{2, 7, 2, 2, 7, 2, 1}, 4, []int{0, 1, 2, 4}},
		{"signed zeros tie", []float64{math.Copysign(0, -1), 0, -1, 0}, 2, []int{0, 1}},
		{"k = len", []float64{3, 3, 1}, 3, []int{0, 1, 2}},
		{"k beyond len", []float64{3, 1}, 5, []int{0, 1}},
		{"k = 0", []float64{3, 1}, 0, nil},
	}
	for _, tc := range cases {
		got := trueIndices(topKMask(tc.x, tc.k))
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s: topKMask(%v, %d) picked %v, want %v", tc.name, tc.x, tc.k, got, tc.want)
		}
	}
}

func TestTopKMaskMatchesSelectionSortWithoutTies(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		d := 1 + rng.Intn(300)
		k := rng.Intn(d + 1)
		// A shuffled arithmetic progression: distinct by construction.
		x := make([]float64, d)
		for i, p := range rng.Perm(d) {
			x[i] = float64(p)*0.37 - 20
		}
		if got, want := topKMask(x, k), refTopKMask(x, k); !slices.Equal(got, want) {
			t.Fatalf("trial %d (d=%d, k=%d): picked %v, selection sort %v", trial, d, k, trueIndices(got), trueIndices(want))
		}
	}
}

// TestMinimizeCardinalityMatchesReference pins the solver to the
// pre-change implementation bit for bit: same mask, same objective bits,
// same iteration count and convergence flag.
func TestMinimizeCardinalityMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	check := func(name string, c []float64, k int, cfg Config) {
		t.Helper()
		got, err := MinimizeCardinality(c, k, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := refMinimizeCardinality(c, k, cfg)
		if !slices.Equal(got.X, want.X) {
			t.Errorf("%s: X picks %v, reference %v", name, trueIndices(got.X), trueIndices(want.X))
		}
		if math.Float64bits(got.Objective) != math.Float64bits(want.Objective) {
			t.Errorf("%s: objective %v, reference %v", name, got.Objective, want.Objective)
		}
		if got.Iterations != want.Iterations || got.Converged != want.Converged {
			t.Errorf("%s: %d iterations converged=%v, reference %d converged=%v",
				name, got.Iterations, got.Converged, want.Iterations, want.Converged)
		}
	}
	for trial := 0; trial < 49; trial++ {
		d := 2 + rng.Intn(400)
		k := rng.Intn(d + 1)
		c := make([]float64, d)
		for i := range c {
			c[i] = rng.NormFloat64() * float64(1+trial%7)
		}
		cfg := DefaultConfig()
		if trial%5 == 4 {
			// A short, loose run that stops on Tol rather than MaxIter.
			cfg.MaxIter, cfg.Tol, cfg.RhoGrowth = 60, 1e-3, 1.2
		}
		check(fmt.Sprintf("trial %d (d=%d, k=%d)", trial, d, k), c, k, cfg)
	}
	// Degenerate: an all-zero cost leaves every relaxed coordinate equal.
	check("all-zero cost", make([]float64, 64), 20, DefaultConfig())
}

// TestMinimizeCardinalityLoopAllocatesNothing pins that every allocation
// happens before or after the iteration loop: 1 iteration and 50
// iterations allocate the same number of objects.
func TestMinimizeCardinalityLoopAllocatesNothing(t *testing.T) {
	c := benchCosts(512)
	allocs := func(iters int) float64 {
		cfg := DefaultConfig()
		cfg.MaxIter, cfg.Tol = iters, 0 // Tol 0 never converges early
		return testing.AllocsPerRun(5, func() {
			if _, err := MinimizeCardinality(c, 77, cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	if one, many := allocs(1), allocs(50); one != many {
		t.Errorf("1 iteration allocates %v objects, 50 iterations %v: the loop allocates", one, many)
	}
}
