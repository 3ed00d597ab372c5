package nn

import (
	"fmt"
	"slices"
	"sync"

	"duo/internal/tensor"
)

// Infer returns l's output for x, with the bits of l.Forward(x), without
// building a Cache: the pass with the tape off, for a caller that will not
// backpropagate. Its activations live in an arena taken from a pool for the
// call and returned at its end, so only the returned tensor is allocated;
// x is never written.
//
// Infer writes no layer state, so any number of goroutines may call it on
// one network, trainable or frozen, as long as none trains it meanwhile.
func Infer(l Layer, x *tensor.Tensor) *tensor.Tensor {
	a := arenas.Get().(*arena)
	y, _ := a.run(l, actOf(x), false)
	out := tensor.From(y.data, y.shape.dims()...)
	a.reset()
	arenas.Put(a)
	return out
}

// forward is the Forward of every layer run knows: the pass with the tape
// on, over an arena with no buffer, so each slice it takes is its own heap
// allocation, which the caches keep until the garbage collector takes
// them. This storage is never pooled.
func forward(l Layer, x *tensor.Tensor) (*tensor.Tensor, Cache) {
	var a arena
	y, c := a.run(l, actOf(x), true)
	switch {
	case y.t != nil: // the input passed through, or a fallback's output
		return y.t, c
	case !y.own: // a view of data the pass does not own
		return tensor.From(y.data, y.shape.dims()...), c
	}
	return tensor.Wrap(y.data, y.shape.dims()...), c
}

// arenas holds the idle arenas: about one per concurrent caller, which the
// garbage collector drops over two cycles once they go unused.
var arenas = sync.Pool{New: func() any { return new(arena) }}

// arena is one pass's activation storage. It hands out slices of one
// buffer in stack order; a pass that outgrows the buffer gets heap slices
// for the rest, and reset then sizes the buffer for the most that pass held
// at once, so the next pass of the same shape allocates nothing.
type arena struct {
	buf  []float64
	off  int // buf[:off] is taken
	over int // elements taken past the buffer, on the heap
	high int // the most elements taken at once since the last reset
}

// take returns n elements. What they hold is undefined: the caller writes
// every one before reading it.
func (a *arena) take(n int) []float64 {
	if a.off+n > len(a.buf) {
		a.over += n
		a.high = max(a.high, a.off+a.over)
		return make([]float64, n)
	}
	a.off += n
	a.high = max(a.high, a.off+a.over)
	return a.buf[a.off-n : a.off : a.off]
}

// mark is a point in an arena's stack of taken slices.
type mark struct{ off, over int }

func (a *arena) mark() mark { return mark{a.off, a.over} }

// release hands back every slice taken since m.
func (a *arena) release(m mark) { a.off, a.over = m.off, m.over }

func (a *arena) reset() {
	if a.high > len(a.buf) {
		a.buf = make([]float64, a.high)
	}
	a.off, a.over, a.high = 0, 0, 0
}

// shape is an activation's dimensions, held inline up to maxStackRank of
// them, so the pass copies shapes without allocating.
type shape struct {
	rank  int
	small [maxStackRank]int
	big   []int // the dimensions, when there are more than maxStackRank
}

func newShape(d ...int) shape {
	s := shape{rank: len(d)}
	if copy(s.small[:], d) < len(d) {
		s.big = slices.Clone(d)
	}
	return s
}

// dims returns the dimensions, aliasing s.
func (s *shape) dims() []int {
	if s.big != nil {
		return s.big
	}
	return s.small[:s.rank]
}

// act is one activation of the pass: flat row-major data and its shape.
// own marks data the arena holds and nothing after this layer reads, which
// the layer may therefore overwrite; the caller's input, a view other
// layers also read and a fallback Forward's output are not owned. No
// activation a cache keeps is owned by the layer after it, so no cache
// sees its data change.
type act struct {
	data  []float64
	shape shape
	own   bool
	t     *tensor.Tensor // the tensor data arrived in, if any
}

// actOf is t as an activation the pass does not own.
func actOf(t *tensor.Tensor) act {
	var buf [maxStackRank]int
	return act{data: t.Data(), shape: newShape(shapeOf(t, buf[:0])...), t: t}
}

// tensor is x as a tensor over its data.
func (x *act) tensor() *tensor.Tensor {
	if x.t != nil {
		return x.t
	}
	return tensor.Wrap(x.data, x.shape.dims()...)
}

// kept is x as the cache of a layer with weights w keeps it: x itself when
// w is frozen, since the Backward then reads no value of x, else a copy,
// since the caller may reuse x.
func (x *act) kept(w *Param) *tensor.Tensor {
	if w.Frozen() {
		return x.tensor()
	}
	return tensor.From(x.data, x.shape.dims()...)
}

// out is a new owned activation of the given shape.
func (a *arena) out(d ...int) act {
	n := 1
	for _, v := range d {
		n *= v
	}
	return act{data: a.take(n), shape: newShape(d...), own: true}
}

// into is where an elementwise layer writes its result for x: x itself
// when x is owned, else a new activation of x's shape.
func (a *arena) into(x act) act {
	if x.own {
		return x
	}
	return act{data: a.take(len(x.data)), shape: x.shape, own: true}
}

// shared is x as an input more than one layer reads.
func (x act) shared() act {
	x.own = false
	return x
}

// frame is the i-th slice of x along its first dimension.
func (x act) frame(i int) act {
	d := x.shape.dims()
	per := len(x.data) / d[0]
	return act{data: x.data[i*per : (i+1)*per : (i+1)*per], shape: newShape(d[1:]...), own: x.own}
}

// run is the one forward pass of every layer of this package except LSTM,
// ChannelNorm and Timed: it returns l's output for x and, with the tape
// on, the cache l's Backward reads. On any layer it does not know (those
// three included) it runs that layer's Forward. Convolutions fan out over
// workers (see convDims); everything else runs on the calling goroutine.
// With the tape off the returned Cache is to be dropped. Each case's type
// is a Layer, which the switch itself checks at compile time.
func (a *arena) run(l Layer, x act, tape bool) (act, Cache) {
	in := x.shape.dims()
	switch l := l.(type) {
	case *Sequential:
		var sc *seqCache
		if tape {
			sc = &seqCache{caches: make([]Cache, len(l.Layers))}
		}
		for i, li := range l.Layers {
			var c Cache
			if x, c = a.run(li, x, tape); tape {
				sc.caches[i] = c
			}
		}
		return x, sc
	case Scale:
		y := a.into(x)
		for i, v := range x.data {
			y.data[i] = v * l.Factor
		}
		return y, nil
	case ReLU:
		y := a.into(x)
		if !tape {
			relu(y.data, x.data, nil)
			return y, nil
		}
		mask := make([]bool, len(x.data))
		relu(y.data, x.data, mask)
		return y, &reluCache{mask: mask}
	case Flatten:
		y := act{data: x.data, shape: newShape(len(x.data)), own: x.own}
		if !tape {
			return y, nil
		}
		return y, &flattenCache{shape: slices.Clone(in)}
	case SwapCT:
		A, B, H, W := swapDims(in)
		y := a.out(B, A, H, W)
		swapInto(y.data, x.data, A, B, H*W)
		return y, nil
	case SubsampleTime:
		checkFramed("SubsampleTime", in)
		n, k := in[0], max(l.K, 1) // the stride, at least 1
		var buf [maxStackRank]int
		d := append(buf[:0], in...)
		d[0] = (n + k - 1) / k
		y := a.out(d...)
		subsample(y.data, x.data, n, k)
		if !tape {
			return y, nil
		}
		kept := make([]int, 0, d[0])
		for i := 0; i < n; i += k {
			kept = append(kept, i)
		}
		return y, &subsampleCache{inShape: slices.Clone(in), kept: kept}
	case *Conv3D:
		d := l.geometry(in)
		y := a.out(d.F, d.To, d.Ho, d.Wo)
		d.forward(x.data, l.W.Value.Data(), l.B.Value.Data(), y.data)
		if !tape {
			return y, nil
		}
		return y, &convCache{x: x.kept(l.W)}
	case *Conv2D:
		d := l.geometry(in)
		y := a.out(d.F, d.Ho, d.Wo)
		d.forward(x.data, l.W.Value.Data(), l.B.Value.Data(), y.data)
		if !tape {
			return y, nil
		}
		return y, &convCache{x: x.kept(l.W)}
	case MaxPool3D:
		k, o := l.window(in)
		y := a.out(in[0], o[0], o[1], o[2])
		if !tape {
			maxPool(y.data, nil, x.data, in, k, o)
			return y, nil
		}
		arg := make([]int, len(y.data))
		maxPool(y.data, arg, x.data, in, k, o)
		return y, &maxPoolCache{inShape: slices.Clone(in), argmax: arg}
	case AvgPoolTime:
		k, to := l.window(in)
		y := a.out(in[0], to, in[2], in[3])
		clear(y.data)
		avgPoolTime(y.data, x.data, in, k, to)
		if !tape {
			return y, nil
		}
		return y, &avgPoolTimeCache{inShape: slices.Clone(in), k: k}
	case GlobalAvgPool:
		checkFramed("GlobalAvgPool", in)
		y := a.out(in[0])
		globalAvg(y.data, x.data)
		if !tape {
			return y, nil
		}
		return y, &gapCache{inShape: slices.Clone(in)}
	case *Linear:
		if len(in) != 1 || in[0] != l.In {
			panic(fmt.Sprintf("nn: Linear(%d→%d) got input shape %v", l.In, l.Out, append([]int(nil), in...)))
		}
		y := a.out(l.Out)
		l.affine(y.data, x.data)
		if !tape {
			return y, nil
		}
		return y, &linearCache{x: x.kept(l.W)}
	case *Parallel:
		var pc *parallelCache
		if tape {
			pc = &parallelCache{caches: make([]Cache, len(l.Branches)), sizes: make([]int, len(l.Branches))}
		}
		shared, n := x.shared(), 0
		parts := make([][]float64, 0, 4)
		for i, br := range l.Branches {
			y, c := a.run(br, shared, tape)
			if y.shape.rank != 1 {
				panic(fmt.Sprintf("nn: Parallel branch %d output rank %d, want 1", i, y.shape.rank))
			}
			parts = append(parts, y.data)
			n += len(y.data)
			if tape {
				pc.caches[i], pc.sizes[i] = c, len(y.data)
			}
		}
		y, off := a.out(n), 0
		for _, p := range parts {
			off += copy(y.data[off:], p)
		}
		return y, pc
	case *Residual:
		shared := x.shared()
		y, ic := a.run(l.Inner, shared, tape)
		skip, pc := shared, Cache(nil)
		if l.Proj != nil {
			skip, pc = a.run(l.Proj, shared, tape)
		}
		if !slices.Equal(y.shape.dims(), skip.shape.dims()) {
			panic(fmt.Sprintf("nn: Residual: inner output %v, skip %v", append([]int(nil), y.shape.dims()...), append([]int(nil), skip.shape.dims()...)))
		}
		out := a.into(y)
		for i, v := range skip.data {
			out.data[i] = y.data[i] + v
		}
		if !tape {
			return out, nil
		}
		return out, &residualCache{inner: ic, proj: pc}
	case *TimeDistributed:
		return a.timeDistributed(l, x, tape)
	default:
		y, c := l.Forward(x.tensor())
		return actOf(y), c
	}
}

// timeDistributed runs l.Inner on every frame of x into one stacked
// output. With the tape off each frame after the first releases what its
// pass took once its output is copied, so the arena holds one frame's
// activations at a time; an arena with no buffer has nothing to release.
func (a *arena) timeDistributed(l *TimeDistributed, x act, tape bool) (act, Cache) {
	in := x.shape.dims()
	checkFramed("TimeDistributed", in)
	n := in[0]
	var tc *timeDistCache
	if tape {
		tc = &timeDistCache{caches: make([]Cache, n), shape: slices.Clone(in)}
	}
	first, c := a.run(l.Inner, x.frame(0), tape)
	if tape {
		tc.caches[0] = c
	}
	fd := first.shape.dims()
	var buf [maxStackRank + 1]int
	y := a.out(append(append(buf[:0], n), fd...)...)
	per := len(first.data)
	copy(y.data, first.data)
	m := a.mark()
	for i := 1; i < n; i++ {
		yi, c := a.run(l.Inner, x.frame(i), tape)
		if !slices.Equal(yi.shape.dims(), fd) {
			panic(fmt.Sprintf("nn: TimeDistributed: frame %d output %v, frame 0 %v", i, append([]int(nil), yi.shape.dims()...), append([]int(nil), fd...)))
		}
		copy(y.data[i*per:(i+1)*per], yi.data)
		if tape {
			tc.caches[i] = c
		}
		a.release(m)
	}
	return y, tc
}

// checkFramed panics unless in has a leading dimension to slice along.
func checkFramed(layer string, in []int) {
	if len(in) < 2 {
		panic(fmt.Sprintf("nn: %s got input shape %v", layer, append([]int(nil), in...)))
	}
}

// maxStackRank is the rank up to which a shape is read into an array on
// the stack, or held inline in an activation.
const maxStackRank = 4

// shapeOf appends x's dimensions to buf: with buf on the caller's stack,
// the shape is read without the copy x.Shape() allocates.
func shapeOf(x *tensor.Tensor, buf []int) []int {
	for i := 0; i < x.Rank(); i++ {
		buf = append(buf, x.Dim(i))
	}
	return buf
}
