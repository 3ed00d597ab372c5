package nn

import (
	"fmt"
	"slices"
	"sync"

	"duo/internal/tensor"
)

// Infer returns l's output for x, with the bits of l.Forward(x), without
// building a Cache: a pass that nothing will backpropagate through. Its
// activations live in an arena taken from a pool for the call and returned
// at its end, so only the returned tensor is allocated; x is never written.
//
// Infer knows every layer of this package except LSTM, ChannelNorm and
// Timed; on any layer it does not know (those three included) it runs that
// layer's Forward and drops the cache. Each known layer runs the helper its
// Forward runs, on the same inputs, so every element gets its terms in the
// same order (DESIGN.md §9). Linear layers run on the calling goroutine;
// convolutions fan out as their Forward does.
//
// Infer writes no layer state, so any number of goroutines may call it on
// one network, trainable or frozen, as long as none trains it meanwhile.
func Infer(l Layer, x *tensor.Tensor) *tensor.Tensor {
	a := arenas.Get().(*arena)
	y := a.infer(l, act{data: x.Data(), shape: a.shapeOf(x)})
	out := tensor.From(y.data, y.shape...)
	a.reset()
	arenas.Put(a)
	return out
}

// arenas holds the idle arenas: about one per concurrent caller, which the
// garbage collector drops over two cycles once they go unused.
var arenas = sync.Pool{New: func() any { return new(arena) }}

// arena is one Infer call's storage: activations and their shapes.
type arena struct {
	floats slab[float64]
	ints   slab[int]
}

// slab hands out slices of one buffer in stack order. A call that outgrows
// the buffer gets heap slices for the rest, and reset then sizes the buffer
// for the most that call held at once, so the next call of the same shape
// allocates nothing.
type slab[T any] struct {
	buf  []T
	off  int // buf[:off] is taken
	over int // elements taken past the buffer, on the heap
	high int // the most elements taken at once since the last reset
}

// take returns n elements. What they hold is undefined: the caller writes
// every one before reading it.
func (s *slab[T]) take(n int) []T {
	if s.off+n > len(s.buf) {
		s.over += n
		s.high = max(s.high, s.off+s.over)
		return make([]T, n)
	}
	s.off += n
	s.high = max(s.high, s.off+s.over)
	return s.buf[s.off-n : s.off : s.off]
}

func (s *slab[T]) reset() {
	if s.high > len(s.buf) {
		s.buf = make([]T, s.high)
	}
	s.off, s.over, s.high = 0, 0, 0
}

// mark is a point in an arena's stack of taken slices.
type mark struct{ floatOff, floatOver, intOff, intOver int }

func (a *arena) mark() mark {
	return mark{a.floats.off, a.floats.over, a.ints.off, a.ints.over}
}

// release hands back every slice taken since m.
func (a *arena) release(m mark) {
	a.floats.off, a.floats.over = m.floatOff, m.floatOver
	a.ints.off, a.ints.over = m.intOff, m.intOver
}

func (a *arena) reset() {
	a.floats.reset()
	a.ints.reset()
}

// act is one activation of the pass: flat row-major data and its shape.
// own marks data the arena holds and nothing after this layer reads, which
// the layer may therefore overwrite; the caller's input, a view other
// layers also read and a fallback Forward's output are not owned.
type act struct {
	data  []float64
	shape []int
	own   bool
}

// shapeOf is x's shape, copied into the arena.
func (a *arena) shapeOf(x *tensor.Tensor) []int {
	return shapeOf(x, a.ints.take(x.Rank())[:0])
}

// out is a new owned activation of the given shape.
func (a *arena) out(dims ...int) act {
	shape := a.ints.take(len(dims))
	copy(shape, dims)
	n := 1
	for _, d := range dims {
		n *= d
	}
	return act{data: a.floats.take(n), shape: shape, own: true}
}

// into is where an elementwise layer writes its result for x: x itself
// when x is owned, else a new activation of x's shape.
func (a *arena) into(x act) act {
	if x.own {
		return x
	}
	return act{data: a.floats.take(len(x.data)), shape: x.shape, own: true}
}

// shared is x as an input more than one layer reads.
func (x act) shared() act {
	x.own = false
	return x
}

// frame is the i-th slice of x along its first dimension.
func (x act) frame(i int) act {
	per := len(x.data) / x.shape[0]
	return act{data: x.data[i*per : (i+1)*per : (i+1)*per], shape: x.shape[1:], own: x.own}
}

// infer runs l on x.
func (a *arena) infer(l Layer, x act) act {
	switch l := l.(type) {
	case *Sequential:
		for _, li := range l.Layers {
			x = a.infer(li, x)
		}
		return x
	case Scale:
		y := a.into(x)
		scale(y.data, x.data, l.Factor)
		return y
	case ReLU:
		y := a.into(x)
		relu(y.data, x.data, nil)
		return y
	case Flatten:
		shape := a.ints.take(1)
		shape[0] = len(x.data)
		return act{data: x.data, shape: shape, own: x.own}
	case SwapCT:
		A, B, H, W := swapDims(x.shape)
		y := a.out(B, A, H, W)
		swapInto(y.data, x.data, A, B, H*W)
		return y
	case SubsampleTime:
		checkFramed("SubsampleTime", x.shape)
		n, k := x.shape[0], l.k()
		shape := a.ints.take(len(x.shape))
		copy(shape, x.shape)
		shape[0] = (n + k - 1) / k
		y := act{data: a.floats.take(len(x.data) / n * shape[0]), shape: shape, own: true}
		subsample(y.data, x.data, n, k)
		return y
	case *Conv3D:
		d := l.geometry(x.shape)
		y := a.out(d.F, d.To, d.Ho, d.Wo)
		d.forward(x.data, l.W.Value.Data(), l.B.Value.Data(), y.data)
		return y
	case *Conv2D:
		d := l.geometry(x.shape)
		y := a.out(d.F, d.Ho, d.Wo)
		d.forward(x.data, l.W.Value.Data(), l.B.Value.Data(), y.data)
		return y
	case MaxPool3D:
		k, o := l.window(x.shape)
		y := a.out(x.shape[0], o[0], o[1], o[2])
		maxPool(y.data, nil, x.data, x.shape, k, o)
		return y
	case AvgPoolTime:
		k, to := l.window(x.shape)
		y := a.out(x.shape[0], to, x.shape[2], x.shape[3])
		clear(y.data)
		avgPoolTime(y.data, x.data, x.shape, k, to)
		return y
	case GlobalAvgPool:
		checkFramed("GlobalAvgPool", x.shape)
		y := a.out(x.shape[0])
		globalAvg(y.data, x.data)
		return y
	case *Linear:
		l.checkInput(x.shape)
		y := a.out(l.Out)
		l.affine(y.data, x.data, 0, l.Out)
		return y
	case *Parallel:
		in := x.shared()
		parts := make([][]float64, 0, 4)
		for i, br := range l.Branches {
			y := a.infer(br, in)
			checkBranch(i, len(y.shape))
			parts = append(parts, y.data)
		}
		n := 0
		for _, p := range parts {
			n += len(p)
		}
		y := a.out(n)
		concat(y.data, parts)
		return y
	case *Residual:
		in := x.shared()
		y, skip := a.infer(l.Inner, in), in
		if l.Proj != nil {
			skip = a.infer(l.Proj, in)
		}
		if !slices.Equal(y.shape, skip.shape) {
			panic(fmt.Sprintf("nn: Residual: inner output %v, skip %v", y.shape, skip.shape))
		}
		out := a.into(y)
		add(out.data, y.data, skip.data)
		return out
	case *TimeDistributed:
		return a.timeDistributed(l, x)
	default:
		y, _ := l.Forward(tensor.Wrap(x.data, x.shape...))
		return act{data: y.Data(), shape: a.shapeOf(y)}
	}
}

// timeDistributed runs l.Inner on every frame of x into one stacked
// output. Each frame after the first releases what its pass took once its
// output is copied, so the arena holds one frame's activations at a time.
func (a *arena) timeDistributed(l *TimeDistributed, x act) act {
	checkFramed("TimeDistributed", x.shape)
	n := x.shape[0]
	first := a.infer(l.Inner, x.frame(0))
	per := len(first.data)
	shape := a.ints.take(1 + len(first.shape))
	shape[0] = n
	copy(shape[1:], first.shape)
	y := act{data: a.floats.take(n * per), shape: shape, own: true}
	copy(y.data, first.data)
	m := a.mark()
	for i := 1; i < n; i++ {
		yi := a.infer(l.Inner, x.frame(i))
		if !slices.Equal(yi.shape, first.shape) {
			panic(fmt.Sprintf("nn: TimeDistributed: frame %d output %v, frame 0 %v", i, yi.shape, first.shape))
		}
		copy(y.data[i*per:(i+1)*per], yi.data)
		a.release(m)
	}
	return y
}

// checkFramed panics unless in has a leading dimension to slice along.
func checkFramed(layer string, in []int) {
	if len(in) < 2 {
		panic(fmt.Sprintf("nn: %s got input shape %v", layer, append([]int(nil), in...)))
	}
}

// maxStackRank is the rank up to which shapeOf reads a shape into a
// caller's stack array.
const maxStackRank = 4

// shapeOf appends x's dimensions to buf: with buf on the caller's stack,
// the shape is read without the copy x.Shape() allocates.
func shapeOf(x *tensor.Tensor, buf []int) []int {
	for i := 0; i < x.Rank(); i++ {
		buf = append(buf, x.Dim(i))
	}
	return buf
}
