package models

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"duo/internal/parallel"
	"duo/internal/tensor"
	"duo/internal/video"
)

// benchGeom is the benchmark's clip geometry; oddGeom has odd, unequal
// sides, so every stride-2 convolution has a short edge column, and a
// frame count that SlowFast's and TPN's temporal strides do not divide.
var (
	benchGeom = Geometry{Frames: 16, Channels: 3, Height: 16, Width: 16}
	oddGeom   = Geometry{Frames: 5, Channels: 3, Height: 11, Width: 13}
)

// checkEmbed requires three Embed calls on x to carry Forward's bits and to
// leave x as it was. The last takes an arena an earlier one left holding
// activations, so a layer that reads memory it did not write fails here.
func checkEmbed(t *testing.T, what string, m Model, x *tensor.Tensor) {
	t.Helper()
	want, _ := m.Forward(x)
	before := x.Clone()
	v := &video.Video{Data: x}
	for call := 0; call < 3; call++ {
		if got := Embed(m, v); !sameBits(want, got) {
			t.Errorf("%s call %d: Embed differs from Forward", what, call)
		}
		if !sameBits(before, x) {
			t.Fatalf("%s call %d: Embed wrote its input clip", what, call)
		}
	}
}

// TestEmbedMatchesForward checks Embed against Forward for every
// architecture, trainable and then frozen, at the benchmark's geometry and
// an odd one, at one and two workers.
func TestEmbedMatchesForward(t *testing.T) {
	for _, g := range []Geometry{benchGeom, oddGeom} {
		for _, name := range Names() {
			rng := rand.New(rand.NewSource(71))
			m, err := Build(name, rng, g, 32)
			if err != nil {
				t.Fatal(err)
			}
			x := tensor.RandUniform(rng, 0, 255, g.Frames, g.Channels, g.Height, g.Width)
			for _, frozen := range []bool{false, true} {
				if frozen {
					Freeze(m)
				}
				for _, w := range []int{1, 2} {
					prev := parallel.SetWorkers(w)
					checkEmbed(t, fmt.Sprintf("%s %v frozen=%v workers=%d", name, g, frozen, w), m, x)
					parallel.SetWorkers(prev)
				}
			}
		}
	}
}

// TestFrozenEmbedSharesAcrossGoroutines embeds through one frozen model
// per architecture from four goroutines at once, each on its own clip;
// every result must carry that clip's Forward bits. Run it with -race.
func TestFrozenEmbedSharesAcrossGoroutines(t *testing.T) {
	const goroutines = 4
	for _, name := range Names() {
		rng := rand.New(rand.NewSource(72))
		m, err := Build(name, rng, tinyGeom, 8)
		if err != nil {
			t.Fatal(err)
		}
		Freeze(m)
		vs := make([]*video.Video, goroutines)
		want := make([]*tensor.Tensor, goroutines)
		for i := range vs {
			vs[i] = &video.Video{Data: tensor.RandUniform(rng, 0, 255, tinyGeom.Frames, tinyGeom.Channels, tinyGeom.Height, tinyGeom.Width)}
			want[i], _ = m.Forward(vs[i].Data)
		}
		var wg sync.WaitGroup
		wg.Add(goroutines)
		for i := 0; i < goroutines; i++ {
			go func(i int) {
				defer wg.Done()
				for rep := 0; rep < 3; rep++ {
					if e := Embed(m, vs[i]); !sameBits(want[i], e) {
						t.Errorf("%s goroutine %d: Embed differs from Forward", name, i)
						return
					}
				}
			}(i)
		}
		wg.Wait()
	}
}

// TestEmbedAllocs pins a frozen SlowFast's and C3D's Embed, on one worker
// at the benchmark's geometry, to the allocations of the embedding it
// returns: every activation comes from the pooled arena.
func TestEmbedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop arenas at random")
	}
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	result := testing.AllocsPerRun(20, func() { tensor.New(32) })
	if result >= 10 {
		t.Fatalf("tensor.New allocates %v times per call, want single digits", result)
	}
	for _, name := range []string{"SlowFast", "C3D"} {
		rng := rand.New(rand.NewSource(73))
		m, err := Build(name, rng, benchGeom, 32)
		if err != nil {
			t.Fatal(err)
		}
		Freeze(m)
		v := &video.Video{Data: tensor.RandUniform(rng, 0, 255, benchGeom.Frames, benchGeom.Channels, benchGeom.Height, benchGeom.Width)}
		if got := testing.AllocsPerRun(20, func() { Embed(m, v) }); got != result {
			t.Errorf("%s: frozen Embed allocates %v times per call, want %v (the returned embedding)", name, got, result)
		}
	}
}
