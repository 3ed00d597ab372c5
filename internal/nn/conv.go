package nn

import (
	"duo/internal/parallel"
	"duo/internal/tensor"
)

// parallelThreshold is the multiply-accumulate count from which a pass fans
// out across workers: per filter for a convolution (the forward over output
// rows, all filters of a row on one worker, the backward's weight pass over
// filters and its dx pass over input rows). It is a var so tests can lower
// it to force the parallel path on tiny layers.
var parallelThreshold = 20000

// convDims is the geometry of one convolution over flat row-major slices:
// x[C,T,H,W], w[F,C,KT,KH,KW], out[F,To,Ho,Wo], zero padding. Conv2D is the
// T = KT = ST = 1, PT = 0 case of the same kernels.
//
// The forward kernel keeps four filters' outputs in registers and runs its
// inner loop over the in-bounds kw run of one input row; the gradient
// kernels run theirs over the kw run one non-zero g reaches. Every kernel
// keeps the order in which each single output, dx, W.Grad and B.Grad
// element receives its terms fixed (DESIGN.md §9): the bits depend on that
// per-element order, not on the order the elements are visited in.
type convDims struct {
	C, F       int
	T, H, W    int
	KT, KH, KW int
	ST, SH, SW int
	PT, PH, PW int
	To, Ho, Wo int
}

func outDim(in, k, s, p int) int { return (in+2*p-k)/s + 1 }

// convCache is what Conv2D and Conv3D keep for Backward: their input, a
// copy unless the layer is frozen (see act.kept).
type convCache struct{ x *tensor.Tensor }

// workers is the fan-out of one pass: the active worker count when there is
// enough arithmetic to amortize it, else 1.
func (d *convDims) workers() int {
	if d.To*d.Ho*d.Wo*d.C*d.KT*d.KH*d.KW < parallelThreshold {
		return 1
	}
	return parallel.Workers()
}

// forward fills out = conv(x, w) + b, sharded over the To·Ho output rows
// (each row of every filter has one writer). Each out element is the bias
// plus its in-bounds taps in ascending (c, kt, kh, kw) order.
func (d *convDims) forward(x, w, b, out []float64) {
	rows := d.To * d.Ho
	workers := d.workers()
	if workers == 1 { // no closure, so no allocation
		d.forwardRange(x, w, b, out, 0, rows)
		return
	}
	dd := *d // the shards capture a copy, so d stays off the heap
	parallel.ForN(workers, rows, func(_, rs, re int) {
		dd.forwardRange(x, w, b, out, rs, re)
	})
}

// forwardRange fills the output rows [rs, re) of every filter. When
// F mod 4 = 2 the first F − 2 filters take forwardRows' four lanes and the
// last two forwardPairs' two, instead of a four-lane block with two lanes
// wasted.
func (d *convDims) forwardRange(x, w, b, out []float64, rs, re int) {
	if d.F%4 != 2 {
		d.forwardRows(x, w, b, out, rs, re)
		return
	}
	quads := *d
	quads.F -= 2
	quads.forwardRows(x, w, b, out, rs, re)
	d.forwardPairs(x, w, b, out, rs, re)
}

// maxStackTaps is the number of taps a kernel's per-row tap table holds on
// the stack. A forward row has up to C·KT·KH taps and a dx row up to KT·KH;
// no registered model has more than 54. A layer with more gets one heap
// table per kernel call.
const maxStackTaps = 64

// tapTable returns an empty tap list with room for n taps, in buf when n
// fits.
func tapTable[T any](buf *[maxStackTaps]T, n int) []T {
	if n <= len(buf) {
		return buf[:0]
	}
	return make([]T, 0, n)
}

// rowTap is one in-bounds (c, kt, kh) kernel row of a forward output row:
// the flat offset of its input row at column 0 and of its kernel row in one
// filter's weights.
type rowTap struct{ x, w int }

// rowTaps lists output row r's in-bounds (c, kt, kh) kernel rows in
// ascending (c, kt, kh) order, the order each output element of the row
// takes its terms in.
func (d *convDims) rowTaps(taps []rowTap, r int) []rowTap {
	xsH := d.W
	xsT := d.H * xsH
	xsC := d.T * xsT
	wsT := d.KH * d.KW
	wsC := d.KT * wsT
	t0 := r/d.Ho*d.ST - d.PT
	h0 := r%d.Ho*d.SH - d.PH
	ktLo, ktHi := max(0, -t0), min(d.KT, d.T-t0)
	khLo, khHi := max(0, -h0), min(d.KH, d.H-h0)
	taps = taps[:0]
	for c := 0; c < d.C; c++ {
		for kt := ktLo; kt < ktHi; kt++ {
			for kh := khLo; kh < khHi; kh++ {
				taps = append(taps, rowTap{x: c*xsC + (t0+kt)*xsT + (h0+kh)*xsH, w: c*wsC + kt*wsT + kh*d.KW})
			}
		}
	}
	return taps
}

// forwardRows fills the output rows (to, ho) for the positions [rs, re) of
// the To·Ho output rows, four filters at a time: each output element of the
// four is accumulated in a register, from its bias through its in-bounds
// taps in (c, kt, kh, kw) order, so every x load feeds four independent add
// chains. The row's (c, kt, kh) kernel rows come from its tap table, so each
// column walks one flat list. A short last block (F mod 4 ≠ 0) points its
// empty lanes at the last filter and discards their results.
func (d *convDims) forwardRows(x, w, b, out []float64, rs, re int) {
	wsF := d.C * d.KT * d.KH * d.KW
	plane := d.To * d.Ho * d.Wo
	last := d.F - 1
	var buf [maxStackTaps]rowTap
	taps := tapTable(&buf, d.C*d.KT*d.KH)
	for r := rs; r < re; r++ {
		taps = d.rowTaps(taps, r)
		for f := 0; f < d.F; f += 4 {
			f1, f2, f3 := min(f+1, last), min(f+2, last), min(f+3, last)
			// Every lane's capacity is wsF, so the bounds check of w0's
			// kernel-row slice covers the other lanes' too.
			w0, w1, w2, w3 := w[f*wsF:][:wsF:wsF], w[f1*wsF:][:wsF:wsF], w[f2*wsF:][:wsF:wsF], w[f3*wsF:][:wsF:wsF]
			orow := out[f*plane+r*d.Wo:][:d.Wo]
			for wo := range orow {
				x0 := wo*d.SW - d.PW
				kwLo, kwHi := max(0, -x0), min(d.KW, d.W-x0)
				a0, a1, a2, a3 := b[f], b[f1], b[f2], b[f3]
				switch n := kwHi - kwLo; {
				case n == 3:
					for _, tp := range taps {
						xs := x[tp.x+x0+kwLo:][:3]
						wi := tp.w + kwLo
						p0, p1, p2, p3 := w0[wi:wi+3], w1[wi:wi+3], w2[wi:wi+3], w3[wi:wi+3]
						a0 += xs[0] * p0[0]
						a1 += xs[0] * p1[0]
						a2 += xs[0] * p2[0]
						a3 += xs[0] * p3[0]
						a0 += xs[1] * p0[1]
						a1 += xs[1] * p1[1]
						a2 += xs[1] * p2[1]
						a3 += xs[1] * p3[1]
						a0 += xs[2] * p0[2]
						a1 += xs[2] * p1[2]
						a2 += xs[2] * p2[2]
						a3 += xs[2] * p3[2]
					}
				case n > 0: // an edge column; n ≤ 0 reaches no input
					for _, tp := range taps {
						wi := tp.w + kwLo
						p0, p1, p2, p3 := w0[wi:wi+n], w1[wi:wi+n], w2[wi:wi+n], w3[wi:wi+n]
						for k, xv := range x[tp.x+x0+kwLo:][:n] {
							a0 += xv * p0[k]
							a1 += xv * p1[k]
							a2 += xv * p2[k]
							a3 += xv * p3[k]
						}
					}
				}
				orow[wo] = a0
				if f+1 <= last {
					out[f1*plane+r*d.Wo+wo] = a1
				}
				if f+2 <= last {
					out[f2*plane+r*d.Wo+wo] = a2
				}
				if f+3 <= last {
					out[f3*plane+r*d.Wo+wo] = a3
				}
			}
		}
	}
}

// forwardPairs fills the output rows [rs, re) of the last two filters with
// forwardRows' per-element order, two register lanes wide.
func (d *convDims) forwardPairs(x, w, b, out []float64, rs, re int) {
	wsF := d.C * d.KT * d.KH * d.KW
	plane := d.To * d.Ho * d.Wo
	f := d.F - 2
	w0, w1 := w[f*wsF:][:wsF:wsF], w[(f+1)*wsF:][:wsF:wsF]
	var buf [maxStackTaps]rowTap
	taps := tapTable(&buf, d.C*d.KT*d.KH)
	for r := rs; r < re; r++ {
		taps = d.rowTaps(taps, r)
		o0, o1 := out[f*plane+r*d.Wo:][:d.Wo], out[(f+1)*plane+r*d.Wo:][:d.Wo]
		for wo := range o0 {
			x0 := wo*d.SW - d.PW
			kwLo, kwHi := max(0, -x0), min(d.KW, d.W-x0)
			a0, a1 := b[f], b[f+1]
			switch n := kwHi - kwLo; {
			case n == 3:
				for _, tp := range taps {
					xs := x[tp.x+x0+kwLo:][:3]
					wi := tp.w + kwLo
					p0, p1 := w0[wi:wi+3], w1[wi:wi+3]
					a0 += xs[0] * p0[0]
					a1 += xs[0] * p1[0]
					a0 += xs[1] * p0[1]
					a1 += xs[1] * p1[1]
					a0 += xs[2] * p0[2]
					a1 += xs[2] * p1[2]
				}
			case n > 0:
				for _, tp := range taps {
					wi := tp.w + kwLo
					p0, p1 := w0[wi:wi+n], w1[wi:wi+n]
					for k, xv := range x[tp.x+x0+kwLo:][:n] {
						a0 += xv * p0[k]
						a1 += xv * p1[k]
					}
				}
			}
			o0[wo], o1[wo] = a0, a1
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
		dd := *d // the shards capture a copy, so d stays off the heap
		parallel.ForN(workers, d.F, func(_, fs, fe int) {
			dd.scatterGrads(x, nil, g, nil, wg, bg, fs, fe)
		})
	}
	d.gradInput(w, g, dx, nil)
}

// gradInput fills the dx rows of the input frames keep marks (every frame
// when keep is nil) and leaves the other rows as they are, sharded over
// those frames' row positions. Each row it fills gets the terms and the
// bits the full dx pass gives it: rows are independent (see gradInputRows).
func (d *convDims) gradInput(w, g, dx []float64, keep []bool) {
	rows := d.T * d.H
	var ts []int
	if keep != nil {
		ts = make([]int, 0, d.T)
		for t, k := range keep {
			if k {
				ts = append(ts, t)
			}
		}
		rows = len(ts) * d.H
	}
	tAt, tTaps := axisTaps(d.T, d.KT, d.ST, d.PT, d.To, d.KH*d.KW, d.Ho*d.Wo)
	hAt, hTaps := axisTaps(d.H, d.KH, d.SH, d.PH, d.Ho, d.KW, d.Wo)
	workers := d.workers()
	if workers == 1 { // no closure, so neither it nor d is allocated
		d.gradInputRows(w, g, dx, ts, tAt, tTaps, hAt, hTaps, 0, rows)
		return
	}
	dd := *d
	parallel.ForN(workers, rows, func(_, rs, re int) {
		dd.gradInputRows(w, g, dx, ts, tAt, tTaps, hAt, hTaps, rs, re)
	})
}

// scatterGrads accumulates W.Grad and B.Grad for filters [fs, fe), and with
// a non-nil dx scatters the input gradient too. It walks the outputs in
// (f, to, ho, wo) order, skipping zero gradients: every non-zero g updates
// the C·KT·KH in-bounds kernel rows it reaches, one contiguous kw run each.
// So each W.Grad and B.Grad element receives its terms in ascending
// (to, ho, wo) order and each dx element in ascending (f, to, ho, wo) order.
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
// input index along one axis, or one (kt, to, kh, ho) that reaches an input
// row, stored as the flat offsets it adds to the weight and the
// output-gradient addresses.
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

// gradInputRows fills the dx rows (·, ti, hi) for the positions [rs, re)
// of the row positions (ti, hi) of the frames ts, or of all T·H row
// positions when ts is nil. Each dx element receives its terms in ascending
// (f, to, ho, wo) order — the order a scatter over the outputs delivers
// them — zero gradients skipped: every non-zero g reaching the row position
// updates one contiguous kw run in each of the C channels. The row's
// (kt, kh) taps are listed once, in tTaps × hTaps order (to, then ho,
// ascending), and walked per filter. No row reads another, so filling a
// subset of the rows leaves each filled row's bits as they are.
func (d *convDims) gradInputRows(w, g, dx []float64, ts []int, tAt []int, tTaps []convTap, hAt []int, hTaps []convTap, rs, re int) {
	wsC := d.KT * d.KH * d.KW
	wsF := d.C * wsC
	perF := d.To * d.Ho * d.Wo
	xsC := d.T * d.H * d.W
	var buf [maxStackTaps]convTap
	taps := tapTable(&buf, d.KT*d.KH)
	for r := rs; r < re; r++ {
		ti, hi := r/d.H, r%d.H
		if ts != nil {
			ti = ts[ti]
		}
		taps = taps[:0]
		for _, tt := range tTaps[tAt[ti]:tAt[ti+1]] {
			for _, ht := range hTaps[hAt[hi]:hAt[hi+1]] {
				taps = append(taps, convTap{w: tt.w + ht.w, g: tt.g + ht.g})
			}
		}
		dxr := dx[(ti*d.H+hi)*d.W:]
		for f := 0; f < d.F; f++ {
			wf, gf := w[f*wsF:][:wsF], g[f*perF:][:perF]
			for _, tp := range taps {
				wt := wf[tp.w:]
				for wo, gv := range gf[tp.g:][:d.Wo] {
					if gv == 0 {
						continue
					}
					w0 := wo*d.SW - d.PW
					kwLo, kwHi := max(0, -w0), min(d.KW, d.W-w0)
					switch n := kwHi - kwLo; {
					case n == 3:
						for c, wi, xi := 0, kwLo, w0+kwLo; c < d.C; c, wi, xi = c+1, wi+wsC, xi+xsC {
							xs, ws := dxr[xi:xi+3], wt[wi:wi+3]
							xs[0] += gv * ws[0]
							xs[1] += gv * ws[1]
							xs[2] += gv * ws[2]
						}
					case n > 0: // an edge column; n ≤ 0 reaches no input
						for c, wi, xi := 0, kwLo, w0+kwLo; c < d.C; c, wi, xi = c+1, wi+wsC, xi+xsC {
							xs, ws := dxr[xi:xi+n], wt[wi:wi+n]
							for k := range xs {
								xs[k] += gv * ws[k]
							}
						}
					}
				}
			}
		}
	}
}
