package nn

import (
	"math/rand"
	"testing"

	"duo/internal/parallel"
	"duo/internal/tensor"
)

// forceParallelThreshold lowers the forward fan-out gate so tiny test
// layers exercise the sharded path, restoring it afterwards.
func forceParallelThreshold(t *testing.T) {
	t.Helper()
	prev := parallelThreshold
	parallelThreshold = 0
	t.Cleanup(func() { parallelThreshold = prev })
}

// sparsifyGrad zeroes a fraction of the upstream gradient so the g==0
// skip branch — which the parallel backward must replicate exactly — is
// exercised.
func sparsifyGrad(rng *rand.Rand, g *tensor.Tensor) {
	d := g.Data()
	for i := range d {
		if rng.Intn(3) == 0 {
			d[i] = 0
		}
	}
}

// layerOutputs runs forward+backward at the given worker count and
// returns (y, dx, param grads) for bitwise comparison.
func layerOutputs(l Layer, x, g *tensor.Tensor, workers int) (y, dx *tensor.Tensor, grads []*tensor.Tensor) {
	prev := parallel.SetWorkers(workers)
	defer parallel.SetWorkers(prev)
	for _, p := range l.Params() {
		p.ZeroGrad()
	}
	y, cache := l.Forward(x)
	dx = l.Backward(cache, g)
	for _, p := range l.Params() {
		grads = append(grads, p.Grad.Clone())
	}
	return y, dx, grads
}

// expectBitwiseEqual fails on the first float that differs between the
// sequential (workers=1) and parallel runs.
func expectBitwiseEqual(t *testing.T, name string, workers int, want, got *tensor.Tensor) {
	t.Helper()
	wd, gd := want.Data(), got.Data()
	if len(wd) != len(gd) {
		t.Fatalf("%s workers=%d: length %d vs %d", name, workers, len(gd), len(wd))
	}
	for i := range wd {
		if wd[i] != gd[i] {
			t.Fatalf("%s workers=%d: element %d = %v, sequential %v (not bitwise identical)",
				name, workers, i, gd[i], wd[i])
		}
	}
}

// checkLayerEquivalence compares forward output, input gradient, and every
// parameter gradient at worker counts 2 and 7 against the sequential
// reference.
func checkLayerEquivalence(t *testing.T, name string, l Layer, x *tensor.Tensor, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	yRef, cache := func() (*tensor.Tensor, Cache) {
		prev := parallel.SetWorkers(1)
		defer parallel.SetWorkers(prev)
		return l.Forward(x)
	}()
	g := tensor.RandNormal(rng, 0, 1, yRef.Shape()...)
	sparsifyGrad(rng, g)
	_ = cache

	wantY, wantDX, wantGrads := layerOutputs(l, x, g, 1)
	for _, w := range []int{2, 7} {
		gotY, gotDX, gotGrads := layerOutputs(l, x, g, w)
		expectBitwiseEqual(t, name+" forward", w, wantY, gotY)
		expectBitwiseEqual(t, name+" dx", w, wantDX, gotDX)
		for i := range wantGrads {
			expectBitwiseEqual(t, name+" "+l.Params()[i].Name, w, wantGrads[i], gotGrads[i])
		}
	}
}

func TestConv2DParallelEquivalence(t *testing.T) {
	forceParallelThreshold(t)
	rng := rand.New(rand.NewSource(31))
	// OutC=3 doesn't divide 2, and 7 workers exceed the filter count; the
	// 9×9 input doesn't shard evenly either.
	l := NewConv2D(rng, 2, 3, 3, 2)
	x := tensor.RandNormal(rng, 0, 1, 2, 9, 9)
	checkLayerEquivalence(t, "conv2d", l, x, 101)
}

func TestConv2DParallelEquivalenceStride1(t *testing.T) {
	forceParallelThreshold(t)
	rng := rand.New(rand.NewSource(32))
	l := NewConv2D(rng, 3, 5, 3, 1)
	x := tensor.RandNormal(rng, 0, 1, 3, 7, 5)
	checkLayerEquivalence(t, "conv2d-s1", l, x, 102)
}

func TestConv3DParallelEquivalence(t *testing.T) {
	forceParallelThreshold(t)
	rng := rand.New(rand.NewSource(33))
	l := NewConv3D(rng, 2, 3, 3, 2)
	x := tensor.RandNormal(rng, 0, 1, 2, 5, 5, 5)
	checkLayerEquivalence(t, "conv3d", l, x, 103)
}

func TestConv3DParallelEquivalenceAsymmetric(t *testing.T) {
	forceParallelThreshold(t)
	rng := rand.New(rand.NewSource(34))
	l := NewConv3DFull(rng, 1, 2, [3]int{1, 3, 3}, [3]int{1, 2, 2}, [3]int{0, 1, 1})
	x := tensor.RandNormal(rng, 0, 1, 1, 3, 7, 7)
	checkLayerEquivalence(t, "conv3d-asym", l, x, 104)
}

func TestConv3DParallelEquivalenceSingleFrame(t *testing.T) {
	// Degenerate temporal depth (one frame): shards far outnumber the
	// useful temporal extent.
	forceParallelThreshold(t)
	rng := rand.New(rand.NewSource(35))
	l := NewConv3DFull(rng, 2, 2, [3]int{1, 3, 3}, [3]int{1, 1, 1}, [3]int{0, 1, 1})
	x := tensor.RandNormal(rng, 0, 1, 2, 1, 6, 6)
	checkLayerEquivalence(t, "conv3d-1frame", l, x, 105)
}

func TestLinearParallelEquivalence(t *testing.T) {
	forceParallelThreshold(t)
	rng := rand.New(rand.NewSource(36))
	// 5 outputs across 2 and 7 workers: uneven shards and empty shards.
	l := NewLinear(rng, 13, 5)
	x := tensor.RandNormal(rng, 0, 1, 13)
	checkLayerEquivalence(t, "linear", l, x, 106)
}

func TestLinearParallelEquivalenceWide(t *testing.T) {
	forceParallelThreshold(t)
	rng := rand.New(rand.NewSource(37))
	l := NewLinear(rng, 64, 31)
	x := tensor.RandNormal(rng, 0, 1, 64)
	checkLayerEquivalence(t, "linear-wide", l, x, 107)
}

// TestParallelGradAccumulation checks that the parallel backward
// accumulates into non-zero parameter gradients exactly like the
// sequential one (two consecutive backward passes without ZeroGrad).
func TestParallelGradAccumulation(t *testing.T) {
	forceParallelThreshold(t)
	rng := rand.New(rand.NewSource(38))
	mk := func() (*Conv2D, *tensor.Tensor, *tensor.Tensor) {
		r := rand.New(rand.NewSource(40))
		l := NewConv2D(r, 2, 3, 3, 1)
		x := tensor.RandNormal(r, 0, 1, 2, 6, 6)
		return l, x, nil
	}
	lSeq, x, _ := mk()
	lPar, _, _ := mk()
	ySeq, cSeq := func() (*tensor.Tensor, Cache) {
		prev := parallel.SetWorkers(1)
		defer parallel.SetWorkers(prev)
		return lSeq.Forward(x)
	}()
	g := tensor.RandNormal(rng, 0, 1, ySeq.Shape()...)

	prev := parallel.SetWorkers(1)
	lSeq.Backward(cSeq, g)
	lSeq.Backward(cSeq, g) // accumulate twice
	parallel.SetWorkers(7)
	_, cPar := lPar.Forward(x)
	lPar.Backward(cPar, g)
	lPar.Backward(cPar, g)
	parallel.SetWorkers(prev)

	for i := range lSeq.Params() {
		expectBitwiseEqual(t, "accumulated "+lSeq.Params()[i].Name, 7,
			lSeq.Params()[i].Grad, lPar.Params()[i].Grad)
	}
}
