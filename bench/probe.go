package main

import (
	"runtime"
	"sync"
	"time"
)

// The speed probe. The machines this benchmark runs on share their cores
// with other tenants: the same binary, seed and workload measured 17.8 ms per
// attack query in one ten-minute stretch and 24.3 ms in the next, with no
// steal time reported. No estimator over a run's own samples survives that,
// so every slice of a run is bracketed by a probe — a fixed piece of
// floating-point work on every core, owned by the benchmark and touching no
// code of the program — and the slice's times are divided by how much slower
// than nominal the probe ran. What is reported is therefore "milliseconds at
// the reference machine speed". A change to the program cannot move the
// probe, so it moves the reported figure exactly as it moves the raw one.

const (
	// Two L2-sized arrays per goroutine, swept probeSweeps times.
	probeWords  = 1 << 15
	probeSweeps = 1200
	// probeRuns probes are taken at each point; their median counts.
	probeRuns = 3
	// probeNominal is what one probe takes on the reference machine: this
	// repository's 2-vCPU builder VM (go1.24, amd64) while its host is quiet.
	probeNominal = 25 * time.Millisecond
)

// probeOnce runs the fixed work on GOMAXPROCS goroutines at once and returns
// the mean of what each took by its own clock, which leaves out how long the
// scheduler needed to get them all going.
func probeOnce() time.Duration {
	sums := make([]float64, runtime.GOMAXPROCS(0))
	took := make([]time.Duration, len(sums))
	var wg sync.WaitGroup
	for g := range sums {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			a, b := make([]float64, probeWords), make([]float64, probeWords)
			for i := range a {
				a[i], b[i] = float64(i%17)*0.25, float64(i%13)*0.5
			}
			start := wallNow()
			acc := 0.0
			for s := 0; s < probeSweeps; s++ {
				for i := range a {
					acc += a[i] * b[i]
				}
			}
			took[g] = wallNow().Sub(start)
			sums[g] = acc // keeps the loop from being optimised away
		}(g)
	}
	wg.Wait()
	var total time.Duration
	for _, d := range took {
		total += d
	}
	return total / time.Duration(len(took))
}

// pace brackets consecutive stretches of work with probes: lap returns the
// slowdown to divide the stretch since the previous lap (or since newPace)
// by — the mean of the probes on either side of it. readings keeps every
// single probe run taken so far, as a slowdown (1 on the quiet reference
// machine), for figures that are normalised over the whole run.
type pace struct {
	last     float64
	readings []float64
}

func newPace() *pace {
	p := &pace{}
	p.last = p.slowdown()
	return p
}

// slowdown reports how much slower than nominal the machine runs right now:
// the median of probeRuns probes.
func (p *pace) slowdown() float64 {
	runs := make([]float64, probeRuns)
	for i := range runs {
		runs[i] = float64(probeOnce()) / float64(probeNominal)
	}
	p.readings = append(p.readings, runs...)
	return median(runs)
}

func (p *pace) lap() float64 {
	now := p.slowdown()
	k := (p.last + now) / 2
	p.last = now
	return k
}
