package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"duo/internal/parallel"
	"duo/internal/tensor"
)

// refConvForward is the scalar forward loop the row-wise kernels replaced,
// kept verbatim as the bitwise reference: one output element at a time,
// acc = bias, then the in-bounds taps in (c, kt, kh, kw) order.
func refConvForward(d *convDims, xd, wd, bd []float64) []float64 {
	od := make([]float64, d.F*d.To*d.Ho*d.Wo)
	xsC, xsT, xsH := d.T*d.H*d.W, d.H*d.W, d.W
	wsF := d.C * d.KT * d.KH * d.KW
	wsC, wsT, wsH := d.KT*d.KH*d.KW, d.KH*d.KW, d.KW
	oi := 0
	for f := 0; f < d.F; f++ {
		wf := wd[f*wsF : (f+1)*wsF]
		for to := 0; to < d.To; to++ {
			t0 := to*d.ST - d.PT
			for ho := 0; ho < d.Ho; ho++ {
				h0 := ho*d.SH - d.PH
				for wo := 0; wo < d.Wo; wo++ {
					w0 := wo*d.SW - d.PW
					acc := bd[f]
					for c := 0; c < d.C; c++ {
						for kt := 0; kt < d.KT; kt++ {
							ti := t0 + kt
							if ti < 0 || ti >= d.T {
								continue
							}
							for kh := 0; kh < d.KH; kh++ {
								hi := h0 + kh
								if hi < 0 || hi >= d.H {
									continue
								}
								xrow := xd[c*xsC+ti*xsT+hi*xsH:]
								wrow := wf[c*wsC+kt*wsT+kh*wsH:]
								for kw := 0; kw < d.KW; kw++ {
									wi := w0 + kw
									if wi < 0 || wi >= d.W {
										continue
									}
									acc += xrow[wi] * wrow[kw]
								}
							}
						}
					}
					od[oi] = acc
					oi++
				}
			}
		}
	}
	return od
}

// refConvBackward is the serial scatter that used to be the workers = 1
// backward: walk the outputs in (f, to, ho, wo) order and scatter g·x into
// wg, g into bg and g·w into dx, skipping g == 0. It accumulates into wg
// and bg and returns dx.
func refConvBackward(d *convDims, xd, wd, gd, wg, bg []float64) []float64 {
	dxd := make([]float64, len(xd))
	xsC, xsT, xsH := d.T*d.H*d.W, d.H*d.W, d.W
	wsF := d.C * d.KT * d.KH * d.KW
	wsC, wsT, wsH := d.KT*d.KH*d.KW, d.KH*d.KW, d.KW
	gi := 0
	for f := 0; f < d.F; f++ {
		wf := wd[f*wsF : (f+1)*wsF]
		wgf := wg[f*wsF : (f+1)*wsF]
		for to := 0; to < d.To; to++ {
			t0 := to*d.ST - d.PT
			for ho := 0; ho < d.Ho; ho++ {
				h0 := ho*d.SH - d.PH
				for wo := 0; wo < d.Wo; wo++ {
					w0 := wo*d.SW - d.PW
					g := gd[gi]
					gi++
					if g == 0 {
						continue
					}
					bg[f] += g
					for c := 0; c < d.C; c++ {
						for kt := 0; kt < d.KT; kt++ {
							ti := t0 + kt
							if ti < 0 || ti >= d.T {
								continue
							}
							for kh := 0; kh < d.KH; kh++ {
								hi := h0 + kh
								if hi < 0 || hi >= d.H {
									continue
								}
								base := c*xsC + ti*xsT + hi*xsH
								wbase := c*wsC + kt*wsT + kh*wsH
								for kw := 0; kw < d.KW; kw++ {
									wi := w0 + kw
									if wi < 0 || wi >= d.W {
										continue
									}
									wgf[wbase+kw] += g * xd[base+wi]
									dxd[base+wi] += g * wf[wbase+kw]
								}
							}
						}
					}
				}
			}
		}
	}
	return dxd
}

// convShape is one differential-test case: a layer geometry plus the input
// extent it is run on.
type convShape struct {
	C, F       int
	T, H, W    int
	KT, KH, KW int
	ST, SH, SW int
	PT, PH, PW int
}

func (s convShape) String() string {
	return fmt.Sprintf("c%df%d_in%dx%dx%d_k%dx%dx%d_s%dx%dx%d_p%dx%dx%d",
		s.C, s.F, s.T, s.H, s.W, s.KT, s.KH, s.KW, s.ST, s.SH, s.SW, s.PT, s.PH, s.PW)
}

// valid reports whether the shape produces a non-empty output.
func (s convShape) valid() bool {
	return outDim(s.T, s.KT, s.ST, s.PT) > 0 && outDim(s.H, s.KH, s.SH, s.PH) > 0 && outDim(s.W, s.KW, s.SW, s.PW) > 0
}

// is2D reports whether Conv2D can express the shape.
func (s convShape) is2D() bool { return s.T == 1 && s.KT == 1 && s.ST == 1 && s.PT == 0 }

// convShapes names every corner the kernels' index arithmetic has.
var convShapes = []convShape{
	// the benchmark's first C3D layer, shrunk
	{C: 3, F: 4, T: 4, H: 8, W: 8, KT: 3, KH: 3, KW: 3, ST: 1, SH: 2, SW: 2, PT: 1, PH: 1, PW: 1},
	// stride > 1 on each axis in turn
	{C: 2, F: 3, T: 7, H: 5, W: 5, KT: 3, KH: 3, KW: 3, ST: 2, SH: 1, SW: 1, PT: 1, PH: 1, PW: 1},
	{C: 2, F: 3, T: 3, H: 7, W: 5, KT: 3, KH: 3, KW: 3, ST: 1, SH: 3, SW: 1, PT: 1, PH: 1, PW: 1},
	{C: 2, F: 3, T: 3, H: 5, W: 9, KT: 3, KH: 3, KW: 3, ST: 1, SH: 1, SW: 2, PT: 1, PH: 1, PW: 1},
	// stride ≥ kernel: some inputs reach no output at all
	{C: 2, F: 2, T: 6, H: 7, W: 8, KT: 2, KH: 2, KW: 2, ST: 2, SH: 3, SW: 3, PT: 0, PH: 0, PW: 0},
	{C: 1, F: 2, T: 5, H: 9, W: 9, KT: 1, KH: 2, KW: 3, ST: 2, SH: 4, SW: 4, PT: 0, PH: 1, PW: 1},
	// pad 0
	{C: 3, F: 2, T: 4, H: 6, W: 6, KT: 3, KH: 3, KW: 3, ST: 1, SH: 1, SW: 1, PT: 0, PH: 0, PW: 0},
	// pad > k/2: whole output rows and columns see only padding
	{C: 2, F: 2, T: 3, H: 4, W: 4, KT: 3, KH: 3, KW: 3, ST: 1, SH: 1, SW: 1, PT: 2, PH: 2, PW: 2},
	{C: 1, F: 2, T: 2, H: 3, W: 1, KT: 1, KH: 1, KW: 1, ST: 1, SH: 2, SW: 4, PT: 1, PH: 2, PW: 3},
	{C: 2, F: 2, T: 1, H: 2, W: 2, KT: 1, KH: 3, KW: 5, ST: 1, SH: 1, SW: 2, PT: 0, PH: 2, PW: 4},
	// T = 1 and 1×k×k kernels (what Conv2D is)
	{C: 2, F: 3, T: 1, H: 9, W: 9, KT: 1, KH: 3, KW: 3, ST: 1, SH: 2, SW: 2, PT: 0, PH: 1, PW: 1},
	{C: 3, F: 5, T: 1, H: 7, W: 5, KT: 1, KH: 3, KW: 3, ST: 1, SH: 1, SW: 1, PT: 0, PH: 1, PW: 1},
	{C: 1, F: 2, T: 3, H: 7, W: 7, KT: 1, KH: 3, KW: 3, ST: 1, SH: 2, SW: 2, PT: 0, PH: 1, PW: 1},
	// non-cubic kernels
	{C: 2, F: 3, T: 5, H: 6, W: 7, KT: 2, KH: 3, KW: 4, ST: 1, SH: 2, SW: 1, PT: 1, PH: 0, PW: 2},
	{C: 2, F: 2, T: 4, H: 5, W: 8, KT: 3, KH: 1, KW: 5, ST: 2, SH: 1, SW: 3, PT: 1, PH: 0, PW: 2},
	// InC = 1, OutC = 1
	{C: 1, F: 1, T: 3, H: 5, W: 5, KT: 3, KH: 3, KW: 3, ST: 1, SH: 1, SW: 1, PT: 1, PH: 1, PW: 1},
	{C: 1, F: 4, T: 2, H: 4, W: 6, KT: 2, KH: 2, KW: 2, ST: 1, SH: 1, SW: 2, PT: 0, PH: 1, PW: 0},
	{C: 4, F: 1, T: 2, H: 4, W: 6, KT: 2, KH: 3, KW: 3, ST: 1, SH: 2, SW: 1, PT: 1, PH: 1, PW: 1},
	// kernel wider than the input row, reachable only through the padding
	{C: 1, F: 2, T: 1, H: 1, W: 1, KT: 1, KH: 3, KW: 3, ST: 1, SH: 1, SW: 1, PT: 0, PH: 1, PW: 1},
	// ... and taps whose first in-bounds column lies beyond the output row
	// (found by the fuzzer)
	{C: 2, F: 3, T: 6, H: 4, W: 1, KT: 3, KH: 2, KW: 5, ST: 3, SH: 2, SW: 1, PT: 0, PH: 1, PW: 2},
	// the benchmark's layers at full size (16×3×16×16 clips): C3D conv1 and
	// conv2, SlowFast's slow and fast pathways, a ResNet block's 2-D conv
	{C: 3, F: 6, T: 16, H: 16, W: 16, KT: 3, KH: 3, KW: 3, ST: 1, SH: 2, SW: 2, PT: 1, PH: 1, PW: 1},
	{C: 6, F: 12, T: 16, H: 8, W: 8, KT: 3, KH: 3, KW: 3, ST: 2, SH: 2, SW: 2, PT: 1, PH: 1, PW: 1},
	{C: 3, F: 12, T: 4, H: 16, W: 16, KT: 1, KH: 3, KW: 3, ST: 1, SH: 2, SW: 2, PT: 0, PH: 1, PW: 1},
	{C: 3, F: 3, T: 16, H: 16, W: 16, KT: 3, KH: 3, KW: 3, ST: 1, SH: 2, SW: 2, PT: 1, PH: 1, PW: 1},
	{C: 6, F: 6, T: 1, H: 8, W: 8, KT: 1, KH: 3, KW: 3, ST: 1, SH: 1, SW: 1, PT: 0, PH: 1, PW: 1},
	// F = 5 … 9: every remainder of a four-filter block, and two blocks
	{C: 2, F: 5, T: 3, H: 5, W: 6, KT: 3, KH: 3, KW: 3, ST: 1, SH: 1, SW: 1, PT: 1, PH: 1, PW: 1},
	{C: 3, F: 6, T: 1, H: 6, W: 7, KT: 1, KH: 3, KW: 3, ST: 1, SH: 1, SW: 2, PT: 0, PH: 1, PW: 1},
	{C: 2, F: 7, T: 4, H: 5, W: 5, KT: 2, KH: 3, KW: 5, ST: 2, SH: 1, SW: 1, PT: 0, PH: 1, PW: 2},
	{C: 1, F: 8, T: 2, H: 4, W: 9, KT: 1, KH: 2, KW: 3, ST: 1, SH: 2, SW: 3, PT: 0, PH: 0, PW: 1},
	{C: 2, F: 9, T: 3, H: 4, W: 4, KT: 3, KH: 3, KW: 3, ST: 1, SH: 1, SW: 1, PT: 2, PH: 2, PW: 2},
	// more taps per row than the kernels' stack table holds: the forward's
	// C·KT·KH (90), then the dx pass's KT·KH too (65)
	{C: 6, F: 5, T: 4, H: 7, W: 7, KT: 3, KH: 5, KW: 3, ST: 1, SH: 2, SW: 2, PT: 1, PH: 2, PW: 1},
	{C: 1, F: 2, T: 5, H: 13, W: 4, KT: 5, KH: 13, KW: 3, ST: 1, SH: 1, SW: 1, PT: 2, PH: 6, PW: 1},
}

// randomConvShape draws a small valid shape.
func randomConvShape(rng *rand.Rand) convShape {
	for {
		s := convShape{
			C: 1 + rng.Intn(3), F: 1 + rng.Intn(4),
			T: 1 + rng.Intn(6), H: 1 + rng.Intn(8), W: 1 + rng.Intn(9),
			KT: 1 + rng.Intn(3), KH: 1 + rng.Intn(4), KW: 1 + rng.Intn(5),
			ST: 1 + rng.Intn(3), SH: 1 + rng.Intn(4), SW: 1 + rng.Intn(4),
			PT: rng.Intn(3), PH: rng.Intn(4), PW: rng.Intn(5),
		}
		if s.valid() {
			return s
		}
	}
}

// randomWideConvShape draws a small valid shape with up to 6 channels and
// 13 filters, so the forward's four-filter blocks come in every count and
// remainder.
func randomWideConvShape(rng *rand.Rand) convShape {
	s := randomConvShape(rng)
	s.C, s.F = 1+rng.Intn(6), 1+rng.Intn(13)
	return s
}

// expectSameBits fails on the first element whose IEEE-754 bits differ.
func expectSameBits(t *testing.T, what string, want, got []float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: length %d, reference %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("%s: element %d = %v (%#x), reference %v (%#x)",
				what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// checkConvKernels runs the layer(s) that express s — Conv3D always, Conv2D
// too when it can — forward and backward at workers 1/2/7, below and above
// parallelThreshold, and compares output, dx, W.Grad and B.Grad bit for bit
// with the reference loops. The upstream gradient carries exact zeros
// (post-ReLU style) and the parameter gradients start non-zero, so both
// the g == 0 skip and the accumulate-into-Grad contract are exercised. A
// frozen Conv3D then fills dx on the input frames whose bit is set in
// frames (bit t mod 64 for frame t) only: those rows must match the
// reference, the others must stay zero.
func checkConvKernels(t *testing.T, s convShape, seed int64, frames uint64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	l3 := NewConv3DFull(rng, s.C, s.F, [3]int{s.KT, s.KH, s.KW}, [3]int{s.ST, s.SH, s.SW}, [3]int{s.PT, s.PH, s.PW})
	l3.B.Value = tensor.RandNormal(rng, 0, 1, s.F)
	x3 := tensor.RandNormal(rng, 0, 1, s.C, s.T, s.H, s.W)
	d := l3.dims(x3)
	g3 := tensor.RandNormal(rng, 0, 1, s.F, d.To, d.Ho, d.Wo)
	sparsifyGrad(rng, g3)
	wg0 := tensor.RandNormal(rng, 0, 1, l3.W.Grad.Shape()...)
	bg0 := tensor.RandNormal(rng, 0, 1, s.F)

	wantY := refConvForward(&d, x3.Data(), l3.W.Value.Data(), l3.B.Value.Data())
	wantWG, wantBG := wg0.Clone(), bg0.Clone()
	wantDX := refConvBackward(&d, x3.Data(), l3.W.Value.Data(), g3.Data(), wantWG.Data(), wantBG.Data())

	type run struct {
		name string
		l    Layer
		x, g *tensor.Tensor
	}
	runs := []run{{"conv3d", l3, x3, g3}}
	if s.is2D() {
		l2 := &Conv2D{
			InC: s.C, OutC: s.F, KH: s.KH, KW: s.KW, SH: s.SH, SW: s.SW, PH: s.PH, PW: s.PW,
			W: NewParam("w", l3.W.Value.Reshape(s.F, s.C, s.KH, s.KW)),
			B: NewParam("b", l3.B.Value.Clone()),
		}
		runs = append(runs, run{"conv2d", l2, x3.Reshape(s.C, s.H, s.W), g3.Reshape(s.F, d.Ho, d.Wo)})
	}

	prevThreshold := parallelThreshold
	defer func() { parallelThreshold = prevThreshold }()
	prevWorkers := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prevWorkers)
	for _, r := range runs {
		for _, threshold := range []int{prevThreshold, 0} {
			for _, workers := range []int{1, 2, 7} {
				parallelThreshold = threshold
				parallel.SetWorkers(workers)
				ps := r.l.Params()
				copy(ps[0].Grad.Data(), wg0.Data())
				copy(ps[1].Grad.Data(), bg0.Data())
				y, cache := r.l.Forward(r.x)
				dx := r.l.Backward(cache, r.g)
				what := fmt.Sprintf("%s %v workers=%d threshold=%d", r.name, s, workers, threshold)
				expectSameBits(t, what+" output", wantY, y.Data())
				expectSameBits(t, what+" dx", wantDX, dx.Data())
				expectSameBits(t, what+" W.Grad", wantWG.Data(), ps[0].Grad.Data())
				expectSameBits(t, what+" B.Grad", wantBG.Data(), ps[1].Grad.Data())
			}
		}
	}

	keep := make([]bool, s.T)
	for ti := range keep {
		keep[ti] = frames>>(ti%64)&1 == 1
	}
	wantRows := make([]float64, len(wantDX))
	plane := s.H * s.W
	for i := range wantRows {
		if keep[i/plane%s.T] {
			wantRows[i] = wantDX[i]
		}
	}
	frozen := *l3
	frozen.W, frozen.B = &Param{Value: l3.W.Value}, &Param{Value: l3.B.Value}
	for _, threshold := range []int{prevThreshold, 0} {
		for _, workers := range []int{1, 2, 7} {
			parallelThreshold = threshold
			parallel.SetWorkers(workers)
			_, cache := frozen.Forward(x3)
			dx := frozen.backwardFrames(cache, g3, keep)
			expectSameBits(t, fmt.Sprintf("conv3d %v frames %v workers=%d threshold=%d dx", s, keep, workers, threshold), wantRows, dx.Data())
		}
	}
}

// TestConvKernelsMatchReference is the bitwise differential test of the
// row-wise kernels against the scalar loops they replaced.
func TestConvKernelsMatchReference(t *testing.T) {
	for i, s := range convShapes {
		if !s.valid() {
			t.Fatalf("convShapes[%d] %v has an empty output", i, s)
		}
		checkConvKernels(t, s, int64(1000+i), uint64(0x5a5a5a5a)>>(i%4))
	}
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 150; i++ {
		checkConvKernels(t, randomConvShape(rng), int64(2000+i), uint64(2000+i)*0x9e3779b97f4a7c15)
	}
	rng = rand.New(rand.NewSource(78))
	for i := 0; i < 100; i++ {
		checkConvKernels(t, randomWideConvShape(rng), int64(3000+i), uint64(3000+i)*0x9e3779b97f4a7c15)
	}
}

// FuzzConvKernelsMatchReference lets the fuzzer pick the geometry and the
// frame set of the restricted dx; the seeds are the named corners above.
func FuzzConvKernelsMatchReference(f *testing.F) {
	for i, s := range convShapes {
		f.Add(s.C, s.F, s.T, s.H, s.W, s.KT, s.KH, s.KW, s.ST, s.SH, s.SW, s.PT, s.PH, s.PW, int64(i), uint64(i)*0x9e3779b97f4a7c15)
	}
	f.Fuzz(func(t *testing.T, c, fo, ti, h, w, kt, kh, kw, st, sh, sw, pt, ph, pw int, seed int64, frames uint64) {
		// Fold arbitrary ints into small positive extents (pads may be 0).
		fold := func(v, lo, n int) int {
			if v < 0 {
				v = -(v + 1)
			}
			return lo + v%n
		}
		s := convShape{
			C: fold(c, 1, 4), F: fold(fo, 1, 5),
			T: fold(ti, 1, 7), H: fold(h, 1, 10), W: fold(w, 1, 10),
			KT: fold(kt, 1, 3), KH: fold(kh, 1, 5), KW: fold(kw, 1, 5),
			ST: fold(st, 1, 4), SH: fold(sh, 1, 5), SW: fold(sw, 1, 5),
			PT: fold(pt, 0, 3), PH: fold(ph, 0, 5), PW: fold(pw, 0, 5),
		}
		if !s.valid() {
			t.Skip("empty output")
		}
		checkConvKernels(t, s, seed, frames)
	})
}

// TestConvBackwardHonoursParallelThreshold pins that a layer below the
// threshold stays on the calling goroutine in both directions: no shard
// other than shard 0 ever runs.
func TestConvBackwardHonoursParallelThreshold(t *testing.T) {
	prev := parallel.SetWorkers(4)
	defer parallel.SetWorkers(prev)
	small := convDims{C: 1, F: 2, T: 1, H: 2, W: 2, KT: 1, KH: 1, KW: 1, ST: 1, SH: 1, SW: 1, To: 1, Ho: 2, Wo: 2}
	if got := small.workers(); got != 1 {
		t.Errorf("2×2 layer fans out over %d workers, want 1", got)
	}
	big := convDims{C: 3, F: 8, T: 16, H: 16, W: 16, KT: 3, KH: 3, KW: 3, ST: 1, SH: 2, SW: 2, PT: 1, PH: 1, PW: 1, To: 16, Ho: 8, Wo: 8}
	if got := big.workers(); got != 4 {
		t.Errorf("benchmark-sized layer fans out over %d workers, want 4", got)
	}
}

// TestConvForwardAllocs pins that a frozen convolution's Forward, on one
// worker, allocates its output tensor and its cache and nothing else: the
// kernel keeps no per-call tables, packed weights or scratch.
func TestConvForwardAllocs(t *testing.T) {
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	rng := rand.New(rand.NewSource(61))
	c3 := NewConv3DFull(rng, 3, 6, [3]int{3, 3, 3}, [3]int{1, 2, 2}, [3]int{1, 1, 1})
	c2 := NewConv2D(rng, 6, 6, 3, 1)
	freeze(c3)
	freeze(c2)
	x3 := tensor.RandNormal(rng, 0, 1, 3, 16, 16, 16)
	x2 := tensor.RandNormal(rng, 0, 1, 6, 8, 8)
	for _, tc := range []struct {
		name   string
		run    func()
		output func()
	}{
		{"conv3d", func() { c3.Forward(x3) }, func() { tensor.New(6, 16, 8, 8) }},
		{"conv2d", func() { c2.Forward(x2) }, func() { tensor.New(6, 8, 8) }},
	} {
		want := testing.AllocsPerRun(20, tc.output) + 1 // + the cache
		if got := testing.AllocsPerRun(20, tc.run); got != want {
			t.Errorf("%s: frozen Forward allocates %v times per call, want %v (output tensor + cache)", tc.name, got, want)
		}
	}
}

// TestConvBackwardAllocs pins a frozen Conv3D's dx pass, on one worker, at
// the dx tensor plus four allocations (the two per-axis tap lists and their
// index tables), and one more for the kept-frame list of the
// frame-restricted backward. The per-row tap table lives on the stack, and
// the one-worker pass runs without a closure, so neither the geometry nor
// the row count escapes. A trainable Conv3D on one worker scatters W.Grad,
// B.Grad and dx in one walk (scatterGrads), which allocates nothing: its
// Backward costs the dx tensor alone. The dx tensor is four allocations
// (header, shape, strides, data): the dims Backward passes to tensor.New
// stay on its stack, and x's shape is not copied.
func TestConvBackwardAllocs(t *testing.T) {
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	rng := rand.New(rand.NewSource(62))
	l := NewConv3DFull(rng, 3, 6, [3]int{3, 3, 3}, [3]int{1, 2, 2}, [3]int{1, 1, 1})
	freeze(l)
	x := tensor.RandNormal(rng, 0, 1, 3, 16, 16, 16)
	y, cache := l.Forward(x)
	g := tensor.RandNormal(rng, 0, 1, y.Shape()...)
	keep := make([]bool, 16)
	for ti := range keep {
		keep[ti] = ti%2 == 0
	}
	tl := NewConv3DFull(rng, 3, 6, [3]int{3, 3, 3}, [3]int{1, 2, 2}, [3]int{1, 1, 1})
	_, tcache := tl.Forward(x)
	dx := testing.AllocsPerRun(20, func() { tensor.New(3, 16, 16, 16) })
	if dx != 4 {
		t.Errorf("tensor.New allocates %v times per call, want 4", dx)
	}
	for _, tc := range []struct {
		name string
		run  func()
		want float64
	}{
		{"frozen Backward", func() { l.Backward(cache, g) }, dx + 4},
		{"frozen backwardFrames", func() { l.backwardFrames(cache, g, keep) }, dx + 5},
		{"trainable Backward", func() { tl.Backward(tcache, g) }, dx},
	} {
		if got := testing.AllocsPerRun(20, tc.run); got != tc.want {
			t.Errorf("Conv3D %s allocates %v times per call, want %v", tc.name, got, tc.want)
		}
	}
}
