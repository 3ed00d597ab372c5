package nn

import (
	"fmt"
	"math"
	"math/rand"

	"duo/internal/tensor"
)

// LSTM is a single-layer long short-term memory over a sequence of feature
// vectors: input [T, In] → final hidden state [Hidden]. It implements the
// temporal-feature stage of the paper's reference retrieval model (Fig. 1:
// "a long short-term memory and a stacked convolution neural network").
//
// Gate layout inside the packed weight matrices is [input, forget, cell,
// output] (each Hidden rows).
type LSTM struct {
	In, Hidden int
	// Wx maps the input to the four gates: shape [4·Hidden, In].
	Wx *Param
	// Wh maps the previous hidden state to the gates: [4·Hidden, Hidden].
	Wh *Param
	// B is the gate bias: [4·Hidden]. The forget-gate slice is
	// initialized to 1, the standard trick for gradient flow.
	B *Param
}

var _ Layer = (*LSTM)(nil)

// NewLSTM returns an LSTM with Xavier-initialized weights and forget-gate
// bias 1.
func NewLSTM(rng *rand.Rand, in, hidden int) *LSTM {
	wx := tensor.New(4*hidden, in)
	XavierInit(rng, wx, in, hidden)
	wh := tensor.New(4*hidden, hidden)
	XavierInit(rng, wh, hidden, hidden)
	b := tensor.New(4 * hidden)
	for i := hidden; i < 2*hidden; i++ {
		b.Data()[i] = 1 // forget gate
	}
	return &LSTM{
		In: in, Hidden: hidden,
		Wx: NewParam(fmt.Sprintf("lstm%dx%d.Wx", hidden, in), wx),
		Wh: NewParam(fmt.Sprintf("lstm%dx%d.Wh", hidden, in), wh),
		B:  NewParam(fmt.Sprintf("lstm%dx%d.B", hidden, in), b),
	}
}

// lstmStep caches one timestep's activations for BPTT.
type lstmStep struct {
	x          *tensor.Tensor // input [In]
	hPrev      *tensor.Tensor // hidden before this step [H]
	cPrev      *tensor.Tensor // cell before this step [H]
	i, f, g, o []float64      // gate activations [H] each
	c          *tensor.Tensor // cell after this step
	tanhC      []float64      // tanh(c) after this step
}

type lstmCache struct{ steps []*lstmStep }

func sigmoid(x float64) float64 {
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}

// Forward implements Layer: x has shape [T, In]; the output is the final
// hidden state [Hidden].
func (l *LSTM) Forward(x *tensor.Tensor) (*tensor.Tensor, Cache) {
	if x.Rank() != 2 || x.Dim(1) != l.In {
		panic(fmt.Sprintf("nn: LSTM(in=%d) got input shape %v", l.In, x.Shape()))
	}
	T := x.Dim(0)
	H := l.Hidden
	h := tensor.New(H)
	c := tensor.New(H)
	cache := &lstmCache{steps: make([]*lstmStep, T)}

	wx, wh, b := l.Wx.Value.Data(), l.Wh.Value.Data(), l.B.Value.Data()

	for t := 0; t < T; t++ {
		xt := x.Slice(t)
		step := &lstmStep{
			x: xt.Clone(), hPrev: h.Clone(), cPrev: c.Clone(),
			i: make([]float64, H), f: make([]float64, H),
			g: make([]float64, H), o: make([]float64, H),
			tanhC: make([]float64, H),
		}
		// Gates: z = Wx·x + Wh·h + b, packed as [i f g o].
		newC := tensor.New(H)
		newH := tensor.New(H)
		for gate := 0; gate < 4; gate++ {
			for j := 0; j < H; j++ {
				row := gate*H + j
				acc := b[row]
				wxRow := wx[row*l.In : (row+1)*l.In]
				for k, xv := range xt.Data() {
					acc += wxRow[k] * xv
				}
				whRow := wh[row*H : (row+1)*H]
				for k, hv := range step.hPrev.Data() {
					acc += whRow[k] * hv
				}
				switch gate {
				case 0:
					step.i[j] = sigmoid(acc)
				case 1:
					step.f[j] = sigmoid(acc)
				case 2:
					step.g[j] = math.Tanh(acc)
				case 3:
					step.o[j] = sigmoid(acc)
				}
			}
		}
		for j := 0; j < H; j++ {
			cv := step.f[j]*step.cPrev.Data()[j] + step.i[j]*step.g[j]
			newC.Data()[j] = cv
			step.tanhC[j] = math.Tanh(cv)
			newH.Data()[j] = step.o[j] * step.tanhC[j]
		}
		step.c = newC.Clone()
		h, c = newH, newC
		cache.steps[t] = step
	}
	return h, cache
}

// Backward implements Layer with full backpropagation through time. A
// frozen layer writes no weight or bias gradient.
func (l *LSTM) Backward(cacheI Cache, gradOut *tensor.Tensor) *tensor.Tensor {
	cache := cacheI.(*lstmCache)
	T := len(cache.steps)
	H := l.Hidden
	dx := tensor.New(T, l.In)

	wx, wh := l.Wx.Value.Data(), l.Wh.Value.Data()
	gwx, gwh, gb := l.Wx.gradData(), l.Wh.gradData(), l.B.gradData()

	dh := gradOut.Clone().Data()
	dc := make([]float64, H)

	for t := T - 1; t >= 0; t-- {
		st := cache.steps[t]
		dhPrev := make([]float64, H)
		dcPrev := make([]float64, H)
		// Per-gate pre-activation gradients.
		dz := make([]float64, 4*H)
		for j := 0; j < H; j++ {
			// h = o · tanh(c)
			do := dh[j] * st.tanhC[j]
			dcj := dc[j] + dh[j]*st.o[j]*(1-st.tanhC[j]*st.tanhC[j])
			// c = f·cPrev + i·g
			di := dcj * st.g[j]
			df := dcj * st.cPrev.Data()[j]
			dg := dcj * st.i[j]
			dcPrev[j] = dcj * st.f[j]
			// Chain through the gate nonlinearities.
			dz[0*H+j] = di * st.i[j] * (1 - st.i[j])
			dz[1*H+j] = df * st.f[j] * (1 - st.f[j])
			dz[2*H+j] = dg * (1 - st.g[j]*st.g[j])
			dz[3*H+j] = do * st.o[j] * (1 - st.o[j])
		}
		// Accumulate parameter gradients and input/hidden gradients.
		dxt := dx.Slice(t).Data()
		for row := 0; row < 4*H; row++ {
			d := dz[row]
			if d == 0 {
				continue
			}
			if gb != nil {
				gb[row] += d
				gwxRow := gwx[row*l.In : (row+1)*l.In]
				for k, xv := range st.x.Data() {
					gwxRow[k] += d * xv
				}
				gwhRow := gwh[row*H : (row+1)*H]
				for k, hv := range st.hPrev.Data() {
					gwhRow[k] += d * hv
				}
			}
			for k, wv := range wx[row*l.In : (row+1)*l.In] {
				dxt[k] += d * wv
			}
			for k, wv := range wh[row*H : (row+1)*H] {
				dhPrev[k] += d * wv
			}
		}
		dh = dhPrev
		dc = dcPrev
	}
	return dx
}

// Params implements Layer.
func (l *LSTM) Params() []*Param { return []*Param{l.Wx, l.Wh, l.B} }
