package models

import (
	"math/rand"
	"testing"

	"duo/internal/tensor"
	"duo/internal/video"
)

// BenchmarkModelForward measures one frozen forward pass of the
// benchmark's victim (SlowFast) and surrogate (C3D) at its clip geometry,
// 16×3×16×16 with a 32-dimensional embedding: almost all of a served query
// and about half of a SparseTransfer θ step. The Embed sub-benchmarks run
// the cache-free pass a served query takes.
func BenchmarkModelForward(b *testing.B) {
	names := []string{"SlowFast", "C3D"}
	build := func(b *testing.B, name string) (Model, *tensor.Tensor) {
		rng := rand.New(rand.NewSource(31))
		m, err := Build(name, rng, benchGeom, 32)
		if err != nil {
			b.Fatal(err)
		}
		Freeze(m)
		return m, tensor.RandUniform(rng, 0, 255, benchGeom.Frames, benchGeom.Channels, benchGeom.Height, benchGeom.Width)
	}
	for _, name := range names {
		b.Run(name, func(b *testing.B) {
			m, x := build(b, name)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, _ = m.Forward(x)
			}
		})
	}
	b.Run("Embed", func(b *testing.B) {
		for _, name := range names {
			b.Run(name, func(b *testing.B) {
				m, x := build(b, name)
				v := &video.Video{Data: x}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					_ = Embed(m, v)
				}
			})
		}
	})
}
