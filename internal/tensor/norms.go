package tensor

import "math"

// Eps is the default tolerance below which an element counts as zero for
// sparsity (L0-style) norms.
const Eps = 1e-12

// L0 returns the number of non-zero elements (‖t‖₀ with tolerance Eps).
func (t *Tensor) L0() int { return t.CountNonZero(Eps) }

// L1 returns the sum of absolute values.
func (t *Tensor) L1() float64 {
	s := 0.0
	for _, v := range t.data {
		s += math.Abs(v)
	}
	return s
}

// L2 returns the Euclidean norm.
func (t *Tensor) L2() float64 { return math.Sqrt(t.SquaredL2()) }

// SquaredL2 returns the squared Euclidean norm.
func (t *Tensor) SquaredL2() float64 {
	s := 0.0
	for _, v := range t.data {
		s += v * v
	}
	return s
}

// LInf returns the maximum absolute element value (‖t‖∞).
func (t *Tensor) LInf() float64 {
	m := 0.0
	for _, v := range t.data {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// L20 returns ‖t‖₂,₀: the number of rows (slices along the first dimension)
// whose L2 norm is non-zero. For a video-shaped perturbation this is the
// number of perturbed frames.
func (t *Tensor) L20() int {
	if t.Rank() == 0 {
		if math.Abs(t.data[0]) > Eps {
			return 1
		}
		return 0
	}
	n := 0
	for i := 0; i < t.shape[0]; i++ {
		if t.Slice(i).SquaredL2() > Eps*Eps {
			n++
		}
	}
	return n
}

// SquaredDistance returns ‖t-u‖₂².
func (t *Tensor) SquaredDistance(u *Tensor) float64 {
	t.mustSameShape(u, "SquaredDistance")
	s := 0.0
	for i, v := range t.data {
		d := v - u.data[i]
		s += d * d
	}
	return s
}

// Distance returns ‖t-u‖₂.
func (t *Tensor) Distance(u *Tensor) float64 { return math.Sqrt(t.SquaredDistance(u)) }

// Normalize returns t scaled to unit L2 norm. A zero tensor is returned
// unchanged.
func (t *Tensor) Normalize() *Tensor {
	n := t.L2()
	if n < Eps {
		return t.Clone()
	}
	return t.Scale(1 / n)
}
