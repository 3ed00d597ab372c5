// Package tensor implements a dense, row-major, float64 N-dimensional
// tensor. It is the numeric substrate for every model and attack in this
// repository.
//
// Shape-mismatch and out-of-range conditions are programmer errors and
// panic with a descriptive message, mirroring the behaviour of Go's own
// slice indexing and of gonum's mat package.
package tensor

import (
	"fmt"
	"strings"
)

// Tensor is a dense row-major N-dimensional array of float64.
// The zero value is not usable; construct with New or From.
type Tensor struct {
	shape   []int
	strides []int
	data    []float64
}

// New returns a zero-filled tensor with the given shape. A tensor with no
// dimensions is a scalar holding one element.
func New(shape ...int) *Tensor {
	// The tensor's own copy comes first, so shape never escapes and a
	// caller's variadic dims stay on its stack.
	own := append([]int(nil), shape...)
	n := 1
	for _, d := range own {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension %d in shape %v", d, own))
		}
		n *= d
	}
	return &Tensor{shape: own, strides: stridesFor(own), data: make([]float64, n)}
}

// From returns a tensor with the given shape backed by a copy of data.
func From(data []float64, shape ...int) *Tensor {
	t := New(shape...)
	if len(data) != len(t.data) {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (want %d)",
			len(data), t.shape, len(t.data)))
	}
	copy(t.data, data)
	return t
}

// Wrap returns a tensor with the given shape that aliases data (no copy).
// Mutating the tensor mutates data and vice versa.
func Wrap(data []float64, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			// A copy, so shape itself does not escape and a caller's
			// variadic dims stay on its stack.
			panic(fmt.Sprintf("tensor: non-positive dimension %d in shape %v", d, append([]int(nil), shape...)))
		}
		n *= d
	}
	if len(data) != n {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (want %d)",
			len(data), append([]int(nil), shape...), n))
	}
	return &Tensor{shape: append([]int(nil), shape...), strides: stridesFor(shape), data: data}
}

func stridesFor(shape []int) []int {
	s := make([]int, len(shape))
	acc := 1
	for i := len(shape) - 1; i >= 0; i-- {
		s[i] = acc
		acc *= shape[i]
	}
	return s
}

// Shape returns a copy of the tensor's shape.
func (t *Tensor) Shape() []int { return append([]int(nil), t.shape...) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.data) }

// Data returns the underlying storage. The slice aliases the tensor: writes
// through it are visible to the tensor. Callers that need isolation must
// copy.
func (t *Tensor) Data() []float64 { return t.data }

// SameShape reports whether t and u have identical shapes.
func (t *Tensor) SameShape(u *Tensor) bool {
	if len(t.shape) != len(u.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != u.shape[i] {
			return false
		}
	}
	return true
}

func (t *Tensor) mustSameShape(u *Tensor, op string) {
	if !t.SameShape(u) {
		panic(fmt.Sprintf("tensor: %s: shape mismatch %v vs %v", op, t.shape, u.shape))
	}
}

// Offset returns the flat index of the element at the given multi-index.
func (t *Tensor) Offset(idx ...int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match tensor rank %d", len(idx), len(t.shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off += x * t.strides[i]
	}
	return off
}

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float64 { return t.data[t.Offset(idx...)] }

// Set stores v at the given multi-index.
func (t *Tensor) Set(v float64, idx ...int) { t.data[t.Offset(idx...)] = v }

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	c := &Tensor{
		shape:   append([]int(nil), t.shape...),
		strides: append([]int(nil), t.strides...),
		data:    make([]float64, len(t.data)),
	}
	copy(c.data, t.data)
	return c
}

// CopyFrom copies u's elements into t. Shapes must match.
func (t *Tensor) CopyFrom(u *Tensor) {
	t.mustSameShape(u, "CopyFrom")
	copy(t.data, u.data)
}

// Reshape returns a view of t with a new shape covering the same elements.
// The element count must be unchanged. The view aliases t's storage.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(t.data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (%d elems) to %v (%d elems)",
			t.shape, len(t.data), shape, n))
	}
	return &Tensor{shape: append([]int(nil), shape...), strides: stridesFor(shape), data: t.data}
}

// Flatten returns a rank-1 view of t aliasing its storage.
func (t *Tensor) Flatten() *Tensor { return t.Reshape(len(t.data)) }

// Zero sets every element to 0.
func (t *Tensor) Zero() {
	for i := range t.data {
		t.data[i] = 0
	}
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float64) {
	for i := range t.data {
		t.data[i] = v
	}
}

// Slice returns a view of the sub-tensor at index i along the first
// dimension (e.g. one frame of a video). The view aliases t's storage.
func (t *Tensor) Slice(i int) *Tensor {
	if len(t.shape) == 0 {
		panic("tensor: Slice of scalar")
	}
	if i < 0 || i >= t.shape[0] {
		panic(fmt.Sprintf("tensor: Slice index %d out of range for dim %d", i, t.shape[0]))
	}
	sub := t.strides[0]
	return &Tensor{
		shape:   append([]int(nil), t.shape[1:]...),
		strides: append([]int(nil), t.strides[1:]...),
		data:    t.data[i*sub : (i+1)*sub],
	}
}

// String renders small tensors fully and large ones as a summary.
func (t *Tensor) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tensor%v", t.shape)
	if len(t.data) <= 16 {
		fmt.Fprintf(&b, "%v", t.data)
	} else {
		fmt.Fprintf(&b, "[%g %g ... %g] (%d elems)", t.data[0], t.data[1], t.data[len(t.data)-1], len(t.data))
	}
	return b.String()
}
