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
