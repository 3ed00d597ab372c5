package tensor

import (
	"math/rand"
	"testing"
)

func benchTensors(n int) (*Tensor, *Tensor) {
	rng := rand.New(rand.NewSource(1))
	return RandNormal(rng, 0, 1, n), RandNormal(rng, 0, 1, n)
}

func BenchmarkAddInPlace(b *testing.B) {
	x, y := benchTensors(12288) // one 16×3×16×16 video
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x.AddInPlace(y)
	}
}

func BenchmarkMul(b *testing.B) {
	x, y := benchTensors(12288)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = x.Mul(y)
	}
}

func BenchmarkSquaredL2(b *testing.B) {
	x, _ := benchTensors(12288)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = x.SquaredL2()
	}
}

func BenchmarkL20Video(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	x := RandNormal(rng, 0, 1, 16, 3, 16, 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = x.L20()
	}
}

func BenchmarkClampInPlace(b *testing.B) {
	x, _ := benchTensors(12288)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x.ClampInPlace(-30, 30)
	}
}

func BenchmarkTopK(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	vals := RandNormal(rng, 0, 1, 12288).Data()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = TopK(vals, 1843) // 15% pixel budget
	}
}
