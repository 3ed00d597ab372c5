package video

import "math"

// PSNR returns the peak signal-to-noise ratio (dB) between two videos of
// identical geometry, with peak 255. Identical videos return +Inf. Higher
// is less perceptible; adversarial-example work commonly reports ≥30 dB as
// "hard to notice".
func PSNR(a, b *Video) float64 {
	mse := a.Data.SquaredDistance(b.Data) / float64(a.Data.Len())
	if mse == 0 {
		return math.Inf(1)
	}
	return 10 * math.Log10(PixelMax*PixelMax/mse)
}

// SSIM returns the mean structural similarity between two videos of
// identical geometry: the global (non-windowed) SSIM statistic computed per
// frame/channel plane and averaged. Values are ≤1; 1 means identical.
// The constants follow the reference implementation (K1=0.01, K2=0.03,
// L=255).
func SSIM(a, b *Video) float64 {
	const (
		c1 = (0.01 * PixelMax) * (0.01 * PixelMax)
		c2 = (0.03 * PixelMax) * (0.03 * PixelMax)
	)
	n, cch := a.Frames(), a.Channels()
	plane := a.Height() * a.Width()
	ad, bd := a.Data.Data(), b.Data.Data()

	total := 0.0
	planes := 0
	for f := 0; f < n; f++ {
		for c := 0; c < cch; c++ {
			off := (f*cch + c) * plane
			ax := ad[off : off+plane]
			bx := bd[off : off+plane]
			var muA, muB float64
			for i := range ax {
				muA += ax[i]
				muB += bx[i]
			}
			muA /= float64(plane)
			muB /= float64(plane)
			var varA, varB, cov float64
			for i := range ax {
				da := ax[i] - muA
				db := bx[i] - muB
				varA += da * da
				varB += db * db
				cov += da * db
			}
			inv := 1 / float64(plane-1)
			if plane == 1 {
				inv = 1
			}
			varA *= inv
			varB *= inv
			cov *= inv
			num := (2*muA*muB + c1) * (2*cov + c2)
			den := (muA*muA + muB*muB + c1) * (varA + varB + c2)
			total += num / den
			planes++
		}
	}
	return total / float64(planes)
}
