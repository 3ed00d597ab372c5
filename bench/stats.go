package main

import (
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"time"

	"duo/internal/video"
)

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of an
// ascending sample; an empty sample yields 0.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted))-1e-9)) - 1 // p·n is a whole number more often than floats admit
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// tailLevels are the percentiles a report may quote, in percent, lowest first.
var tailLevels = []int{50, 75, 90, 95, 99}

// supportedTail returns the highest level of tailLevels that still has at
// least ten of the n samples beyond it (the median when none has).
func supportedTail(n int) float64 {
	best := tailLevels[0]
	for _, p := range tailLevels {
		if n*(100-p) >= 10*100 {
			best = p
		}
	}
	return float64(best) / 100
}

// distribution summarizes one latency sample in milliseconds.
type distribution struct {
	N                   int
	Mean, P50, P95, P99 float64
	// TailLevel is the highest percentile the sample supports with ten
	// samples beyond it, and TailMs its value.
	TailLevel, TailMs float64
}

// summarize reports the distribution of a latency sample. P95 and P99 are
// always computed; TailLevel says how far into the tail to trust them.
func summarize(ds []time.Duration) distribution {
	if len(ds) == 0 {
		return distribution{}
	}
	xs := make([]float64, len(ds))
	sum := 0.0
	for i, d := range ds {
		xs[i] = ms(d)
		sum += xs[i]
	}
	sort.Float64s(xs)
	level := supportedTail(len(xs))
	return distribution{
		N:         len(xs),
		Mean:      sum / float64(len(xs)),
		P50:       percentile(xs, 0.5),
		P95:       percentile(xs, 0.95),
		P99:       percentile(xs, 0.99),
		TailLevel: level,
		TailMs:    percentile(xs, level),
	}
}

// slice is the end-to-end view of one stretch of a run — one attack, or half
// a second of closed-loop serving — at the reference machine speed: the raw
// times divided, the raw rate multiplied, by Slowdown (see probe.go).
type slice struct {
	MsPerQuery  float64 `json:"ms_per_query"`
	P50Ms       float64 `json:"query_p50_ms,omitempty"`
	P95Ms       float64 `json:"query_p95_ms,omitempty"`
	QueriesPerS float64 `json:"queries_per_s"`
	Slowdown    float64 `json:"machine_slowdown"`
}

// newSlice normalises one stretch's raw figures by the slowdown measured
// around it.
func newSlice(d distribution, msPerQuery, queriesPerS, slowdown float64) slice {
	return slice{
		MsPerQuery:  msPerQuery / slowdown,
		P50Ms:       d.P50 / slowdown,
		P95Ms:       d.P95 / slowdown,
		QueriesPerS: queriesPerS * slowdown,
		Slowdown:    slowdown,
	}
}

// bestQuartile returns the value a quarter of the way in from the better end
// of xs. It is how a run condenses its slices: on a shared machine
// interference only ever adds time, in bursts of seconds, so the fastest
// quartile of equal slices of work estimates what the code costs when left
// alone, while a real regression moves every slice. (A median would do if
// less than half of a run were disturbed; on this VM whole runs are.)
func bestQuartile(xs []float64, better string) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if better == higher {
		return percentile(s, 0.75)
	}
	return percentile(s, 0.25)
}

// headline condenses a window's slices field by field; an attack loop's
// latency figures come from calmLatency instead.
func (m *measurement) headline() slice {
	pick := func(better string, field func(slice) float64) float64 {
		xs := make([]float64, len(m.slices))
		for i, sl := range m.slices {
			xs[i] = field(sl)
		}
		return bestQuartile(xs, better)
	}
	h := slice{
		MsPerQuery:  pick(lower, func(s slice) float64 { return s.MsPerQuery }),
		P50Ms:       pick(lower, func(s slice) float64 { return s.P50Ms }),
		P95Ms:       pick(lower, func(s slice) float64 { return s.P95Ms }),
		QueriesPerS: pick(higher, func(s slice) float64 { return s.QueriesPerS }),
		Slowdown:    pick(lower, func(s slice) float64 { return s.Slowdown }),
	}
	if m.callGroups > 0 {
		h.P50Ms, h.P95Ms = m.callP50Ms, m.callP95Ms
	}
	return h
}

// calmLatency condenses the victim-call latencies of an attack loop, where
// an attack is the wrong slice for them: attack_transfer's calls come in two
// bursts of some 50 ms per two-second attack, and the machine's speed a
// second away, at the attack's ends where the probes sit, says little about
// it during the burst. The calls are instead cut into groups of `group`
// consecutive ones (tens of milliseconds each), every group yields its median
// and p95, and the best quartile of the groups is divided by the best
// quartile of all the single probe runs of the window (readings): the calm
// moments' latency over the calm moments' machine speed, both sampled all
// along the same window at about the same grain.
func calmLatency(lat []time.Duration, group int, readings []float64) (p50, p95 float64, groups int) {
	var p50s, p95s []float64
	for ; len(lat) >= group; lat = lat[group:] {
		d := summarize(lat[:group])
		p50s, p95s = append(p50s, d.P50), append(p95s, d.P95)
	}
	k := bestQuartile(readings, lower)
	if len(p50s) == 0 || k == 0 {
		return 0, 0, 0
	}
	return bestQuartile(p50s, lower) / k, bestQuartile(p95s, lower) / k, len(p50s)
}

// median returns the median of xs without reordering it.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

// poissonSchedule returns the arrival offsets of a Poisson process of the
// given rate (1/s) over dur, drawn from rng: exponential gaps, ascending.
func poissonSchedule(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		at := seconds(t)
		if at >= dur {
			return out
		}
		out = append(out, at)
	}
}

// subSeed derives the k-th independent stream of a run seed.
func subSeed(seed int64, k int) int64 { return seed*1_000_003 + int64(k) }

// fingerprint hashes a video's exact pixel bits (FNV-1a 64).
func fingerprint(v *video.Video) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range v.Data.Data() {
		u := math.Float64bits(x)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}
