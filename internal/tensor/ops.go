package tensor

import (
	"fmt"
	"math"
)

// Add returns t + u elementwise.
func (t *Tensor) Add(u *Tensor) *Tensor {
	t.mustSameShape(u, "Add")
	out := t.Clone()
	for i, v := range u.data {
		out.data[i] += v
	}
	return out
}

// AddInPlace adds u into t elementwise and returns t.
func (t *Tensor) AddInPlace(u *Tensor) *Tensor {
	t.mustSameShape(u, "AddInPlace")
	for i, v := range u.data {
		t.data[i] += v
	}
	return t
}

// Sub returns t - u elementwise.
func (t *Tensor) Sub(u *Tensor) *Tensor {
	t.mustSameShape(u, "Sub")
	out := t.Clone()
	for i, v := range u.data {
		out.data[i] -= v
	}
	return out
}

// Mul returns the Hadamard (elementwise) product t ⊙ u.
func (t *Tensor) Mul(u *Tensor) *Tensor {
	t.mustSameShape(u, "Mul")
	out := t.Clone()
	for i, v := range u.data {
		out.data[i] *= v
	}
	return out
}

// MulInPlace multiplies u into t elementwise and returns t.
func (t *Tensor) MulInPlace(u *Tensor) *Tensor {
	t.mustSameShape(u, "MulInPlace")
	for i, v := range u.data {
		t.data[i] *= v
	}
	return t
}

// Scale returns s * t.
func (t *Tensor) Scale(s float64) *Tensor {
	out := New(t.shape...)
	for i, v := range t.data {
		out.data[i] = v * s
	}
	return out
}

// ScaleInPlace multiplies every element by s and returns t.
func (t *Tensor) ScaleInPlace(s float64) *Tensor {
	for i := range t.data {
		t.data[i] *= s
	}
	return t
}

// AddScaled adds s*u into t elementwise (t += s*u) and returns t.
func (t *Tensor) AddScaled(s float64, u *Tensor) *Tensor {
	t.mustSameShape(u, "AddScaled")
	for i, v := range u.data {
		t.data[i] += s * v
	}
	return t
}

// Apply returns a new tensor with f applied to every element.
func (t *Tensor) Apply(f func(float64) float64) *Tensor {
	out := t.Clone()
	for i, v := range out.data {
		out.data[i] = f(v)
	}
	return out
}

// ApplyInPlace applies f to every element in place and returns t.
func (t *Tensor) ApplyInPlace(f func(float64) float64) *Tensor {
	for i, v := range t.data {
		t.data[i] = f(v)
	}
	return t
}

// Clamp returns a copy with every element limited to [lo, hi]. The builtin
// min and max give math.Min's and math.Max's results on ±0 and ±Inf and a
// NaN for a NaN, and inline.
func (t *Tensor) Clamp(lo, hi float64) *Tensor {
	out := New(t.shape...)
	for i, v := range t.data {
		out.data[i] = max(lo, min(hi, v))
	}
	return out
}

// ClampInPlace limits every element to [lo, hi] in place and returns t.
func (t *Tensor) ClampInPlace(lo, hi float64) *Tensor {
	for i, v := range t.data {
		t.data[i] = max(lo, min(hi, v))
	}
	return t
}

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	s := 0.0
	for _, v := range t.data {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of all elements.
func (t *Tensor) Mean() float64 { return t.Sum() / float64(len(t.data)) }

// Max returns the maximum element value.
func (t *Tensor) Max() float64 {
	m := math.Inf(-1)
	for _, v := range t.data {
		if v > m {
			m = v
		}
	}
	return m
}

// Min returns the minimum element value.
func (t *Tensor) Min() float64 {
	m := math.Inf(1)
	for _, v := range t.data {
		if v < m {
			m = v
		}
	}
	return m
}

// Dot returns the inner product of t and u viewed as flat vectors.
func (t *Tensor) Dot(u *Tensor) float64 {
	if len(t.data) != len(u.data) {
		panic(fmt.Sprintf("tensor: Dot: length mismatch %d vs %d", len(t.data), len(u.data)))
	}
	s := 0.0
	for i, v := range t.data {
		s += v * u.data[i]
	}
	return s
}

// Equal reports whether t and u have the same shape and all elements are
// within tol of each other.
func (t *Tensor) Equal(u *Tensor, tol float64) bool {
	if !t.SameShape(u) {
		return false
	}
	for i, v := range t.data {
		if math.Abs(v-u.data[i]) > tol {
			return false
		}
	}
	return true
}

// CountNonZero returns the number of elements with |v| > eps.
func (t *Tensor) CountNonZero(eps float64) int {
	n := 0
	for _, v := range t.data {
		if math.Abs(v) > eps {
			n++
		}
	}
	return n
}
