package admm

import (
	"fmt"
	"math/rand"
	"testing"
)

func benchCosts(n int) []float64 {
	rng := rand.New(rand.NewSource(1))
	c := make([]float64, n)
	for i := range c {
		c[i] = rng.NormFloat64()
	}
	return c
}

// BenchmarkMinimizeCardinality measures one ℓp-box ADMM solve at the size
// SparseTransfer's ℐ-step uses for a 16×3×16×16 clip (d = 12288, k = 15 %)
// and at the golden tests' 4×3×8×8 clip.
func BenchmarkMinimizeCardinality(b *testing.B) {
	for _, size := range []struct{ d, k int }{{768, 115}, {12288, 1843}} {
		b.Run(fmt.Sprintf("d=%d/k=%d", size.d, size.k), func(b *testing.B) {
			c := benchCosts(size.d)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := MinimizeCardinality(c, size.k, DefaultConfig()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTopKByScore measures the plain top-k baseline of the ablation.
func BenchmarkTopKByScore(b *testing.B) {
	c := benchCosts(12288)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = TopKByScore(c, 1843)
	}
}
