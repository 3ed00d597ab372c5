package tensor

import "math/rand"

// FillUniform fills t with independent samples from U[lo, hi).
func (t *Tensor) FillUniform(rng *rand.Rand, lo, hi float64) *Tensor {
	for i := range t.data {
		t.data[i] = lo + rng.Float64()*(hi-lo)
	}
	return t
}

// FillNormal fills t with independent samples from N(mean, std²).
func (t *Tensor) FillNormal(rng *rand.Rand, mean, std float64) *Tensor {
	for i := range t.data {
		t.data[i] = mean + rng.NormFloat64()*std
	}
	return t
}

// RandUniform returns a new tensor of the given shape filled from U[lo, hi).
func RandUniform(rng *rand.Rand, lo, hi float64, shape ...int) *Tensor {
	return New(shape...).FillUniform(rng, lo, hi)
}

// RandNormal returns a new tensor of the given shape filled from N(mean, std²).
func RandNormal(rng *rand.Rand, mean, std float64, shape ...int) *Tensor {
	return New(shape...).FillNormal(rng, mean, std)
}
