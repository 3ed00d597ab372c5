// Package mathx provides small numeric helpers shared across models,
// losses, and metrics: numerically stable softmax/logsumexp and summary
// statistics.
package mathx

import "math"

// Softmax returns the softmax of x, computed stably by shifting by max(x).
func Softmax(x []float64) []float64 {
	out := make([]float64, len(x))
	if len(x) == 0 {
		return out
	}
	m := x[0]
	for _, v := range x[1:] {
		if v > m {
			m = v
		}
	}
	sum := 0.0
	for i, v := range x {
		e := math.Exp(v - m)
		out[i] = e
		sum += e
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// LogSumExp returns log(Σ exp(xᵢ)), computed stably.
func LogSumExp(x []float64) float64 {
	if len(x) == 0 {
		return math.Inf(-1)
	}
	m := x[0]
	for _, v := range x[1:] {
		if v > m {
			m = v
		}
	}
	if math.IsInf(m, -1) {
		return m
	}
	sum := 0.0
	for _, v := range x {
		sum += math.Exp(v - m)
	}
	return m + math.Log(sum)
}

// Clamp limits v to [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
