// Package badmod is a deliberately contract-violating module for
// cmd/duolint's end-to-end test: one finding each for detrand and
// walltime, at stable positions.
package badmod

import (
	"math/rand"
	"time"
)

// Jitter violates detrand (global source) and walltime (clock read).
func Jitter() time.Time {
	return time.Now().Add(time.Duration(rand.Intn(1000)))
}
