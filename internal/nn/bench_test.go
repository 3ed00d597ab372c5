package nn

import (
	"fmt"
	"math/rand"
	"testing"

	"duo/internal/parallel"
	"duo/internal/tensor"
)

func BenchmarkConv3DForward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	l := NewConv3DFull(rng, 3, 6, [3]int{3, 3, 3}, [3]int{1, 2, 2}, [3]int{1, 1, 1})
	x := tensor.RandNormal(rng, 0, 1, 3, 16, 16, 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _ = l.Forward(x)
	}
}

// BenchmarkConv3DBackward measures the training backward (dx, W.Grad and
// B.Grad) against the frozen one (dx only).
func BenchmarkConv3DBackward(b *testing.B) {
	for _, frozen := range []bool{false, true} {
		name := "train"
		if frozen {
			name = "frozen"
		}
		b.Run(name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(2))
			l := NewConv3DFull(rng, 3, 6, [3]int{3, 3, 3}, [3]int{1, 2, 2}, [3]int{1, 1, 1})
			if frozen {
				freeze(l)
			}
			x := tensor.RandNormal(rng, 0, 1, 3, 16, 16, 16)
			y, cache := l.Forward(x)
			g := tensor.RandNormal(rng, 0, 1, y.Shape()...)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = l.Backward(cache, g)
			}
		})
	}
	// The attack's dx: frozen layers and a g that is zero wherever the
	// ReLU above would be, here half of it. frozen_frames is C3D's conv1
	// restricted to alternate frames, frozen_conv2 its second layer.
	b.Run("frozen_frames", func(b *testing.B) {
		rng := rand.New(rand.NewSource(8))
		l := NewConv3DFull(rng, 3, 6, [3]int{3, 3, 3}, [3]int{1, 2, 2}, [3]int{1, 1, 1})
		freeze(l)
		y, cache := l.Forward(tensor.RandNormal(rng, 0, 1, 3, 16, 16, 16))
		g := halfZero(tensor.RandNormal(rng, 0, 1, y.Shape()...))
		keep := make([]bool, 16)
		for ti := range keep {
			keep[ti] = ti%2 == 0
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = l.backwardFrames(cache, g, keep)
		}
	})
	b.Run("frozen_conv2", func(b *testing.B) {
		rng := rand.New(rand.NewSource(9))
		l := NewConv3D(rng, 6, 12, 3, 2)
		freeze(l)
		y, cache := l.Forward(tensor.RandNormal(rng, 0, 1, 6, 16, 8, 8))
		g := halfZero(tensor.RandNormal(rng, 0, 1, y.Shape()...))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = l.Backward(cache, g)
		}
	})
}

// halfZero zeroes g's negative elements, about half of a normal sample.
func halfZero(g *tensor.Tensor) *tensor.Tensor {
	d := g.Data()
	for i, v := range d {
		if v < 0 {
			d[i] = 0
		}
	}
	return g
}

func BenchmarkConv2DForward(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	l := NewConv2D(rng, 3, 6, 3, 2)
	x := tensor.RandNormal(rng, 0, 1, 3, 16, 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _ = l.Forward(x)
	}
}

func BenchmarkLinearForward(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	l := NewLinear(rng, 768, 128)
	x := tensor.RandNormal(rng, 0, 1, 768)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _ = l.Forward(x)
	}
}

// BenchmarkConvForwardParallel measures the row-sharded Conv3D forward
// at several worker counts (workers=1 is the sequential path).
func BenchmarkConvForwardParallel(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	l := NewConv3DFull(rng, 3, 8, [3]int{3, 3, 3}, [3]int{1, 2, 2}, [3]int{1, 1, 1})
	x := tensor.RandNormal(rng, 0, 1, 3, 16, 16, 16)
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			prev := parallel.SetWorkers(w)
			defer parallel.SetWorkers(prev)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, _ = l.Forward(x)
			}
		})
	}
}

// BenchmarkConvBackwardParallel measures the two-pass parallel Conv3D
// backward against the sequential scatter (workers=1).
func BenchmarkConvBackwardParallel(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	l := NewConv3DFull(rng, 3, 8, [3]int{3, 3, 3}, [3]int{1, 2, 2}, [3]int{1, 1, 1})
	x := tensor.RandNormal(rng, 0, 1, 3, 16, 16, 16)
	y, cache := l.Forward(x)
	g := tensor.RandNormal(rng, 0, 1, y.Shape()...)
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			prev := parallel.SetWorkers(w)
			defer parallel.SetWorkers(prev)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = l.Backward(cache, g)
			}
		})
	}
}

func BenchmarkMaxPool3D(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	l := MaxPool3D{KT: 2, KH: 2, KW: 2}
	x := tensor.RandNormal(rng, 0, 1, 6, 16, 16, 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _ = l.Forward(x)
	}
}
