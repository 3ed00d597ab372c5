package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"duo/internal/parallel"
	"duo/internal/tensor"
)

// passThrough is a layer the pass does not know whose Forward returns its
// input itself, as a caller-written layer may.
type passThrough struct{}

func (passThrough) Forward(x *tensor.Tensor) (*tensor.Tensor, Cache)  { return x, nil }
func (passThrough) Backward(_ Cache, g *tensor.Tensor) *tensor.Tensor { return g }
func (passThrough) Params() []*Param                                  { return nil }

// TestInferMatchesForward runs Infer on small networks built to exercise
// every layer it knows, the Forward fallback, and every way an activation
// is shared: Parallel branches and Residual paths that begin with an
// in-place layer, a fallback that returns its input, TimeDistributed
// frames. Each runs on the raw input and behind a Scale, so the first
// layer sees both a caller's tensor and one the arena owns; the inputs of
// the in-place cases hold a NaN, a −0 and a −Inf. Infer must
// give Forward's bits at one and two workers, with the fan-out gates
// lowered, three times in a row, and leave its input as it was. The first
// call outgrows the arena and the second gets a fresh buffer, both zero;
// the third runs on what the second left there.
func TestInferMatchesForward(t *testing.T) {
	forceParallelThreshold(t)
	rng := rand.New(rand.NewSource(81))
	cases := []struct {
		name    string
		net     Layer
		shape   []int
		special bool // the input starts NaN, −0, −Inf
	}{
		{"parallel in-place branches", &Parallel{Branches: []Layer{
			NewSequential(ReLU{}, GlobalAvgPool{}),
			NewSequential(Scale{Factor: -1}, ReLU{}, GlobalAvgPool{}),
			NewSequential(Flatten{}, NewLinear(rng, 120, 3)),
		}}, []int{2, 3, 4, 5}, true},
		{"residual identity", NewSequential(
			&Residual{Inner: NewSequential(ReLU{}, NewConv2D(rng, 2, 2, 3, 1))},
			ReLU{},
			&Residual{Inner: ReLU{}},
		), []int{2, 5, 4}, false},
		{"residual projection", &Residual{
			Inner: NewSequential(NewConv2D(rng, 2, 3, 3, 1), ReLU{}),
			Proj:  NewConv2D(rng, 2, 3, 1, 1),
		}, []int{2, 5, 4}, false},
		{"time distributed", NewSequential(
			&TimeDistributed{Inner: NewSequential(
				NewConv2D(rng, 2, 3, 3, 2), ReLU{},
				&Residual{Inner: NewConv2D(rng, 3, 3, 3, 1)}, ReLU{},
			)},
			SwapCT{}, GlobalAvgPool{},
		), []int{3, 2, 7, 5}, false},
		{"pools", NewSequential(
			SwapCT{}, NewConv3DFull(rng, 2, 5, [3]int{3, 3, 3}, [3]int{1, 2, 2}, [3]int{1, 1, 1}), ReLU{},
			MaxPool3D{KT: 1, KH: 2, KW: 2}, AvgPoolTime{K: 2}, GlobalAvgPool{}, NewLinear(rng, 5, 4),
		), []int{5, 2, 9, 7}, false},
		{"subsample", NewSequential(
			SubsampleTime{K: 3}, SwapCT{}, NewConv3D(rng, 2, 3, 3, 1), Flatten{},
		), []int{7, 2, 4, 3}, false},
		{"fallbacks", NewSequential(
			&TimeDistributed{Inner: NewSequential(NewConv2D(rng, 2, 3, 3, 2), NewChannelNorm(3), ReLU{}, Flatten{})},
			NewLSTM(rng, 3*3*3, 4),
			NewTimed(NewLinear(rng, 4, 3), nil, "head"),
			ReLU{},
		), []int{4, 2, 5, 6}, false},
		{"pass-through", &Parallel{Branches: []Layer{
			NewSequential(passThrough{}, ReLU{}, GlobalAvgPool{}),
			GlobalAvgPool{},
		}}, []int{3, 4, 4}, true},
	}
	for _, tc := range cases {
		x := tensor.RandNormal(rng, 0, 1, tc.shape...)
		if tc.special {
			d := x.Data()
			d[0], d[1], d[2] = math.NaN(), math.Copysign(0, -1), math.Inf(-1)
		}
		for _, net := range []Layer{tc.net, NewSequential(Scale{Factor: 1.5}, tc.net)} {
			for _, w := range []int{1, 2} {
				prev := parallel.SetWorkers(w)
				want, _ := net.Forward(x)
				before := x.Clone()
				for call := 0; call < 3; call++ {
					what := fmt.Sprintf("%s (%T) workers=%d call %d", tc.name, net, w, call)
					got := Infer(net, x)
					if !got.SameShape(want) {
						t.Fatalf("%s: shape %v, Forward gives %v", what, got.Shape(), want.Shape())
					}
					expectSameBits(t, what, want.Data(), got.Data())
					expectSameBits(t, what+" input", before.Data(), x.Data())
				}
				parallel.SetWorkers(prev)
			}
		}
	}
}
