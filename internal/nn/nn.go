// Package nn is a minimal from-scratch neural-network layer library with
// manual reverse-mode differentiation. It provides the convolutional video
// backbones (C3D, I3D, TPN, SlowFast, ResNet analogues) that stand in for
// the paper's PyTorch models.
//
// Every Layer's Forward returns an output and an opaque Cache capturing the
// state needed by Backward. Caches are per-call, so several forward passes
// can be in flight at once (needed by batch metric losses, which backprop a
// whole batch of embeddings through shared weights).
//
// Each layer's forward is written once, as its case of one pass over the
// layer graph that runs with a tape on or off. Forward is the pass with the
// tape on, which also builds the Cache. Infer is the pass with the tape
// off, for a caller that will not backpropagate: it keeps its activations
// in a pooled arena and allocates only the tensor it returns. The pass runs
// the Forward of LSTM, ChannelNorm, Timed and layers from outside the
// package.
package nn

import (
	"fmt"

	"duo/internal/tensor"
)

// Cache carries per-forward state from Forward to Backward.
type Cache interface{}

// Param is a trainable tensor with its accumulated gradient.
//
// A Param whose Grad is nil is frozen: the layers that own it still
// backpropagate to their input, with the same bits, but skip the
// parameter-gradient work and write nothing into the Param. Frozen layers
// hold no state a Backward writes, so any number of goroutines may run
// Forward and Backward on them at once.
type Param struct {
	Name  string
	Value *tensor.Tensor
	Grad  *tensor.Tensor
}

// NewParam allocates a parameter and a matching zero gradient.
func NewParam(name string, value *tensor.Tensor) *Param {
	return &Param{Name: name, Value: value, Grad: tensor.New(value.Shape()...)}
}

// ZeroGrad resets the accumulated gradient.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// Frozen reports whether p accumulates no gradient (see Param).
func (p *Param) Frozen() bool { return p.Grad == nil }

// gradData is the gradient buffer Backward accumulates into, nil when p is
// frozen.
func (p *Param) gradData() []float64 {
	if p.Frozen() {
		return nil
	}
	return p.Grad.Data()
}

// Layer is a differentiable module.
//
// Forward computes the output for x and a cache for the backward pass.
// Backward consumes that cache and the gradient of the loss with respect to
// the layer output, accumulates the gradients of the parameters that are
// not frozen, and returns the gradient with respect to the layer input.
type Layer interface {
	Forward(x *tensor.Tensor) (*tensor.Tensor, Cache)
	Backward(c Cache, gradOut *tensor.Tensor) *tensor.Tensor
	Params() []*Param
}

// Sequential chains layers, feeding each one's output to the next.
type Sequential struct {
	Layers []Layer
}

// NewSequential returns a Sequential over the given layers.
func NewSequential(layers ...Layer) *Sequential { return &Sequential{Layers: layers} }

type seqCache struct{ caches []Cache }

// Forward implements Layer.
func (s *Sequential) Forward(x *tensor.Tensor) (*tensor.Tensor, Cache) { return forward(s, x) }

// Backward implements Layer.
func (s *Sequential) Backward(c Cache, gradOut *tensor.Tensor) *tensor.Tensor {
	sc, ok := c.(*seqCache)
	if !ok {
		panic(fmt.Sprintf("nn: Sequential.Backward got cache of type %T", c))
	}
	for i := len(s.Layers) - 1; i >= 0; i-- {
		gradOut = s.Layers[i].Backward(sc.caches[i], gradOut)
	}
	return gradOut
}

// Params implements Layer.
func (s *Sequential) Params() []*Param {
	var ps []*Param
	for _, l := range s.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// ReLU applies max(0, x) elementwise.
type ReLU struct{}

type reluCache struct{ mask []bool }

// Forward implements Layer.
func (l ReLU) Forward(x *tensor.Tensor) (*tensor.Tensor, Cache) { return forward(l, x) }

// relu writes max(0, v) for every v of src into dst, which may be src, and
// marks the positive elements in mask unless mask is nil. A NaN is not
// positive, so it becomes 0.
func relu(dst, src []float64, mask []bool) {
	for i, v := range src {
		if v > 0 {
			dst[i] = v
			if mask != nil {
				mask[i] = true
			}
		} else {
			dst[i] = 0
		}
	}
}

// Backward implements Layer.
func (ReLU) Backward(c Cache, gradOut *tensor.Tensor) *tensor.Tensor {
	rc := c.(*reluCache)
	grad := gradOut.Clone()
	d := grad.Data()
	for i := range d {
		if !rc.mask[i] {
			d[i] = 0
		}
	}
	return grad
}

// Params implements Layer.
func (ReLU) Params() []*Param { return nil }

// Flatten reshapes any input to rank 1. Backward restores the input shape.
type Flatten struct{}

type flattenCache struct{ shape []int }

// Forward implements Layer.
func (l Flatten) Forward(x *tensor.Tensor) (*tensor.Tensor, Cache) { return forward(l, x) }

// Backward implements Layer.
func (Flatten) Backward(c Cache, gradOut *tensor.Tensor) *tensor.Tensor {
	fc := c.(*flattenCache)
	return gradOut.Reshape(fc.shape...).Clone()
}

// Params implements Layer.
func (Flatten) Params() []*Param { return nil }

// Scale multiplies the input by a fixed constant (no parameters). It is
// used to normalize pixel ranges at model entry.
type Scale struct{ Factor float64 }

// Forward implements Layer.
func (s Scale) Forward(x *tensor.Tensor) (*tensor.Tensor, Cache) { return forward(s, x) }

// Backward implements Layer.
func (s Scale) Backward(_ Cache, gradOut *tensor.Tensor) *tensor.Tensor {
	return gradOut.Scale(s.Factor)
}

// Params implements Layer.
func (Scale) Params() []*Param { return nil }
