package models

import (
	"math/rand"
	"testing"

	"duo/internal/tensor"
)

// BenchmarkModelForward measures one frozen forward pass of the
// benchmark's victim (SlowFast) and surrogate (C3D) at its clip geometry,
// 16×3×16×16 with a 32-dimensional embedding: almost all of a served query
// and about half of a SparseTransfer θ step.
func BenchmarkModelForward(b *testing.B) {
	g := Geometry{Frames: 16, Channels: 3, Height: 16, Width: 16}
	for _, name := range []string{"SlowFast", "C3D"} {
		b.Run(name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(31))
			m, err := Build(name, rng, g, 32)
			if err != nil {
				b.Fatal(err)
			}
			Freeze(m)
			x := tensor.RandUniform(rng, 0, 255, g.Frames, g.Channels, g.Height, g.Width)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, _ = m.Forward(x)
			}
		})
	}
}
