package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"duo/internal/parallel"
	"duo/internal/tensor"
)

// freeze marks every parameter of l frozen.
func freeze(l Layer) {
	for _, p := range l.Params() {
		p.Grad = nil
	}
}

// checkFrozenMatchesTraining runs l in training mode at one and two
// workers, freezes it, and requires the frozen forward output and dx to
// carry the same bits at the same worker counts, with every Grad left nil.
// The input is overwritten with NaN between the frozen Forward and
// Backward: a dx-only backward must not read the input's values.
func checkFrozenMatchesTraining(t *testing.T, name string, l Layer, x *tensor.Tensor, seed int64) {
	t.Helper()
	forceParallelThreshold(t)
	rng := rand.New(rand.NewSource(seed))
	y0, _ := l.Forward(x)
	g := tensor.RandNormal(rng, 0, 1, y0.Shape()...)
	sparsifyGrad(rng, g)

	workers := []int{1, 2}
	wantY := make([]*tensor.Tensor, len(workers))
	wantDX := make([]*tensor.Tensor, len(workers))
	for i, w := range workers {
		wantY[i], wantDX[i], _ = layerOutputs(l, x, g, w)
	}
	freeze(l)
	for i, w := range workers {
		prev := parallel.SetWorkers(w)
		in := x.Clone()
		y, c := l.Forward(in)
		in.Fill(math.NaN())
		dx := l.Backward(c, g)
		parallel.SetWorkers(prev)
		expectSameBits(t, fmt.Sprintf("%s frozen forward workers=%d", name, w), wantY[i].Data(), y.Data())
		expectSameBits(t, fmt.Sprintf("%s frozen dx workers=%d", name, w), wantDX[i].Data(), dx.Data())
		for _, p := range l.Params() {
			if p.Grad != nil {
				t.Fatalf("%s workers=%d: frozen Backward set %s.Grad", name, w, p.Name)
			}
		}
	}
}

func TestFrozenConv2DMatchesTraining(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	l := NewConv2D(rng, 2, 3, 3, 2)
	checkFrozenMatchesTraining(t, "conv2d", l, tensor.RandNormal(rng, 0, 1, 2, 9, 9), 151)
}

func TestFrozenConv3DMatchesTraining(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	l := NewConv3DFull(rng, 2, 3, [3]int{3, 3, 3}, [3]int{1, 2, 2}, [3]int{1, 1, 1})
	checkFrozenMatchesTraining(t, "conv3d", l, tensor.RandNormal(rng, 0, 1, 2, 4, 7, 6), 152)
}

// TestFrozenConvMatchesTrainingAllShapes repeats the conv check over the
// kernel tests' named corner shapes and random ones: strides, paddings and
// kernels larger than the input included.
func TestFrozenConvMatchesTrainingAllShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	shapes := append([]convShape(nil), convShapes...)
	for i := 0; i < 20; i++ {
		shapes = append(shapes, randomConvShape(rng))
	}
	for i, s := range shapes {
		l := NewConv3DFull(rng, s.C, s.F, [3]int{s.KT, s.KH, s.KW}, [3]int{s.ST, s.SH, s.SW}, [3]int{s.PT, s.PH, s.PW})
		checkFrozenMatchesTraining(t, s.String(), l, tensor.RandNormal(rng, 0, 1, s.C, s.T, s.H, s.W), int64(i))
	}
}

func TestFrozenLinearMatchesTraining(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	l := NewLinear(rng, 13, 5)
	checkFrozenMatchesTraining(t, "linear", l, tensor.RandNormal(rng, 0, 1, 13), 154)
}

func TestFrozenLSTMMatchesTraining(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	l := NewLSTM(rng, 5, 4)
	checkFrozenMatchesTraining(t, "lstm", l, tensor.RandNormal(rng, 0, 1, 3, 5), 155)
}

func TestFrozenChannelNormMatchesTraining(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	l := NewChannelNorm(3)
	for i, v := range l.Gain.Value.Data() {
		l.Gain.Value.Data()[i] = v + 0.25*float64(i)
	}
	checkFrozenMatchesTraining(t, "channelnorm", l, tensor.RandNormal(rng, 0, 1, 3, 4, 5), 156)
}
