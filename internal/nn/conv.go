package nn

import (
	"duo/internal/parallel"
	"duo/internal/tensor"
)

// parallelThreshold is the per-filter multiply-accumulate count above which
// convolution passes fan out across workers. It is a var so tests can lower
// it to force the parallel path on tiny layers.
var parallelThreshold = 20000

// convDims is the geometry of one convolution over flat row-major slices:
// x[C,T,H,W], w[F,C,KT,KH,KW], out[F,To,Ho,Wo], zero padding. Conv2D is the
// T = KT = ST = 1, PT = 0 case of the same kernels.
//
// Every kernel below runs its inner loop along one contiguous W row (the
// forward pass over output columns, the gradient passes over the kw run one
// non-zero g reaches) and keeps the order in which each single output, dx,
// W.Grad and B.Grad element receives its terms fixed (DESIGN.md §9): the
// bits depend on that per-element order, not on the order the elements are
// visited in.
type convDims struct {
	C, F       int
	T, H, W    int
	KT, KH, KW int
	ST, SH, SW int
	PT, PH, PW int
	To, Ho, Wo int
}

func outDim(in, k, s, p int) int { return (in+2*p-k)/s + 1 }

// convCache is what Conv2D and Conv3D keep for Backward.
type convCache struct{ x *tensor.Tensor }

// newConvCache keeps the input for the weight gradient: a copy, since the
// caller may reuse x. A frozen layer's Backward reads only x's shape, so it
// keeps x itself.
func newConvCache(w *Param, x *tensor.Tensor) *convCache {
	if w.Frozen() {
		return &convCache{x: x}
	}
	return &convCache{x: x.Clone()}
}

// workers is the fan-out of one pass: the active worker count when there is
// enough arithmetic to amortize it, else 1.
func (d *convDims) workers() int {
	if d.To*d.Ho*d.Wo*d.C*d.KT*d.KH*d.KW < parallelThreshold {
		return 1
	}
	return parallel.Workers()
}

// forward fills out = conv(x, w) + b, sharded over filters (output planes
// are disjoint). Each out element is the bias plus its in-bounds taps in
// ascending (c, kt, kh, kw) order.
func (d *convDims) forward(x, w, b, out []float64) {
	// Tap kw lands inside the input row for output columns [lo, hi):
	// 0 ≤ wo·SW − PW + kw < W, first at input column x0.
	cols := make([]tapCols, d.KW)
	for kw := range cols {
		lo, hi := 0, 0
		if n := d.PW - kw; n > 0 {
			lo = min((n+d.SW-1)/d.SW, d.Wo)
		}
		if n := d.W + d.PW - kw; n > 0 {
			hi = min((n-1)/d.SW+1, d.Wo)
		}
		cols[kw] = tapCols{lo: lo, hi: max(hi, lo), x0: lo*d.SW - d.PW + kw}
	}
	parallel.ForN(d.workers(), d.F, func(_, fs, fe int) {
		d.forwardFilters(x, w, b, out, cols, fs, fe)
	})
}

// tapCols is the span of output columns one kernel column contributes to,
// and the input column its first contribution reads.
type tapCols struct{ lo, hi, x0 int }

// forwardFilters fills the output planes of filters [fs, fe) row by row: a
// row starts as the bias and every in-bounds kernel row (c, kt, kh), in that
// order, adds its taps kw ascending, each along its whole span of columns.
//
//duolint:hot
func (d *convDims) forwardFilters(x, w, b, out []float64, cols []tapCols, fs, fe int) {
	xsH := d.W
	xsT := d.H * xsH
	xsC := d.T * xsT
	wsT := d.KH * d.KW
	wsC := d.KT * wsT
	wsF := d.C * wsC
	sw := d.SW
	for f := fs; f < fe; f++ {
		wf := w[f*wsF : (f+1)*wsF]
		oi := f * d.To * d.Ho * d.Wo
		for to := 0; to < d.To; to++ {
			t0 := to*d.ST - d.PT
			ktLo, ktHi := max(0, -t0), min(d.KT, d.T-t0)
			for ho := 0; ho < d.Ho; ho++ {
				h0 := ho*d.SH - d.PH
				khLo, khHi := max(0, -h0), min(d.KH, d.H-h0)
				orow := out[oi : oi+d.Wo]
				oi += d.Wo
				for wo := range orow {
					orow[wo] = b[f]
				}
				for c := 0; c < d.C; c++ {
					for kt := ktLo; kt < ktHi; kt++ {
						for kh := khLo; kh < khHi; kh++ {
							xrow := x[c*xsC+(t0+kt)*xsT+(h0+kh)*xsH:][:d.W]
							wrow := wf[c*wsC+kt*wsT+kh*d.KW:][:d.KW]
							for kw, tc := range cols {
								wv, xi := wrow[kw], tc.x0
								os := orow[tc.lo:tc.hi]
								for wo := range os {
									os[wo] += xrow[xi] * wv
									xi += sw
								}
							}
						}
					}
				}
			}
		}
	}
}

// backward accumulates W.Grad and B.Grad and fills dx (zero on entry). One
// worker scatters all three in a single walk over the outputs; more workers
// take two passes, each with a single writer per element, that deliver every
// element its terms in the scatter's order. A frozen layer (nil wg and bg)
// runs only the dx pass, at any worker count, so its dx keeps the same bits.
func (d *convDims) backward(x, w, g, dx, wg, bg []float64) {
	workers := d.workers()
	frozen := wg == nil
	if !frozen && workers == 1 {
		d.scatterGrads(x, w, g, dx, wg, bg, 0, d.F)
		return
	}
	if !frozen {
		parallel.ForN(workers, d.F, func(_, fs, fe int) {
			d.scatterGrads(x, nil, g, nil, wg, bg, fs, fe)
		})
	}
	tAt, tTaps := axisTaps(d.T, d.KT, d.ST, d.PT, d.To, d.KH*d.KW, d.Ho*d.Wo)
	hAt, hTaps := axisTaps(d.H, d.KH, d.SH, d.PH, d.Ho, d.KW, d.Wo)
	parallel.ForN(workers, d.T*d.H, func(_, rs, re int) {
		d.gradInputRows(w, g, dx, tAt, tTaps, hAt, hTaps, rs, re)
	})
}

// scatterGrads accumulates W.Grad and B.Grad for filters [fs, fe), and with
// a non-nil dx scatters the input gradient too. It walks the outputs in
// (f, to, ho, wo) order, skipping zero gradients: every non-zero g updates
// the C·KT·KH in-bounds kernel rows it reaches, one contiguous kw run each.
// So each W.Grad and B.Grad element receives its terms in ascending
// (to, ho, wo) order and each dx element in ascending (f, to, ho, wo) order.
//
//duolint:hot
func (d *convDims) scatterGrads(x, w, g, dx, wg, bg []float64, fs, fe int) {
	xsH := d.W
	xsT := d.H * xsH
	xsC := d.T * xsT
	wsT := d.KH * d.KW
	wsC := d.KT * wsT
	wsF := d.C * wsC
	for f := fs; f < fe; f++ {
		wgf := wg[f*wsF : (f+1)*wsF]
		var wf []float64
		if dx != nil {
			wf = w[f*wsF : (f+1)*wsF]
		}
		gi := f * d.To * d.Ho * d.Wo
		for to := 0; to < d.To; to++ {
			t0 := to*d.ST - d.PT
			ktLo, ktHi := max(0, -t0), min(d.KT, d.T-t0)
			for ho := 0; ho < d.Ho; ho++ {
				h0 := ho*d.SH - d.PH
				khLo, khHi := max(0, -h0), min(d.KH, d.H-h0)
				for wo, gv := range g[gi : gi+d.Wo] {
					if gv == 0 {
						continue
					}
					bg[f] += gv
					w0 := wo*d.SW - d.PW
					kwLo, kwHi := max(0, -w0), min(d.KW, d.W-w0)
					for c := 0; c < d.C; c++ {
						for kt := ktLo; kt < ktHi; kt++ {
							for kh := khLo; kh < khHi; kh++ {
								wi := c*wsC + kt*wsT + kh*d.KW
								xi := c*xsC + (t0+kt)*xsT + (h0+kh)*xsH + w0
								if dx == nil {
									for kw := kwLo; kw < kwHi; kw++ {
										wgf[wi+kw] += gv * x[xi+kw]
									}
									continue
								}
								for kw := kwLo; kw < kwHi; kw++ {
									wgf[wi+kw] += gv * x[xi+kw]
									dx[xi+kw] += gv * wf[wi+kw]
								}
							}
						}
					}
				}
				gi += d.Wo
			}
		}
	}
}

// convTap is one (kernel offset k, output index o) pair that reaches an
// input index along one axis, stored as the flat offsets it adds to the
// weight and the output-gradient addresses.
type convTap struct{ w, g int }

// axisTaps lists, for every input index i in [0, n), the taps with
// o·s − p + k = i, 0 ≤ k < kn, 0 ≤ o < on, k descending (so o ascending):
// taps[at[i]:at[i+1]]. wStride and gStride scale k and o to flat offsets.
func axisTaps(n, kn, s, p, on, wStride, gStride int) (at []int, taps []convTap) {
	at = make([]int, n+1)
	taps = make([]convTap, 0, n*kn)
	for i := 0; i < n; i++ {
		for k := kn - 1; k >= 0; k-- {
			os := i + p - k
			if os < 0 || os%s != 0 || os/s >= on {
				continue
			}
			taps = append(taps, convTap{w: k * wStride, g: os / s * gStride})
		}
		at[i+1] = len(taps)
	}
	return at, taps
}

// gradInputRows fills the dx rows (·, ti, hi) for the (ti, hi) pairs
// [rs, re) of the T·H input row positions. Each dx element receives its
// terms in ascending (f, to, ho, wo) order — the order a scatter over the
// outputs delivers them — zero gradients skipped: every non-zero g reaching
// the row position updates one contiguous kw run in each of the C channels.
//
//duolint:hot
func (d *convDims) gradInputRows(w, g, dx []float64, tAt []int, tTaps []convTap, hAt []int, hTaps []convTap, rs, re int) {
	wsC := d.KT * d.KH * d.KW
	wsF := d.C * wsC
	perF := d.To * d.Ho * d.Wo
	xsC := d.T * d.H * d.W
	for r := rs; r < re; r++ {
		ti, hi := r/d.H, r%d.H
		dxr := dx[r*d.W:]
		for f := 0; f < d.F; f++ {
			for _, tt := range tTaps[tAt[ti]:tAt[ti+1]] {
				for _, ht := range hTaps[hAt[hi]:hAt[hi+1]] {
					wf := w[f*wsF+tt.w+ht.w:]
					for wo, gv := range g[f*perF+tt.g+ht.g:][:d.Wo] {
						if gv == 0 {
							continue
						}
						w0 := wo*d.SW - d.PW
						kwLo, kwHi := max(0, -w0), min(d.KW, d.W-w0)
						for c, wi, xi := 0, 0, w0; c < d.C; c, wi, xi = c+1, wi+wsC, xi+xsC {
							for kw := kwLo; kw < kwHi; kw++ {
								dxr[xi+kw] += gv * wf[wi+kw]
							}
						}
					}
				}
			}
		}
	}
}
