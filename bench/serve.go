package main

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"duo/internal/retrieval"
	"duo/internal/video"
)

// client is one load-generator goroutine's private state. Client c of n only
// ever issues the clips at pool positions ≡ c (mod n), so no two requests in
// flight share a clip — the traced run's parent lookup relies on it — and
// nobody else touches its first-answer slots.
type client struct {
	tally
	// lat is each request's latency from its due time, done when it
	// completed, lag how late the generator started it.
	lat, lag       []time.Duration
	done           []time.Time
	sheds, errored int
}

// clipPool trims the query pool to a multiple of the client count, which
// keeps the clients' position classes disjoint when the pool wraps around.
func (r *runner) clipPool() []*video.Video {
	n := len(r.fx.queries)
	return r.fx.queries[:n-n%r.z.Clients]
}

// request issues one query and records its outcome. due is when the request
// was meant to start — the zero time in a closed loop, where that is whenever
// the client gets to it — and latency counts from there. first, when
// non-nil, receives the clip's first answer.
func (r *runner) request(c *client, victim retrieval.FallibleRetriever, q *video.Video, due time.Time, traced bool, first *[]retrieval.Result) {
	begin := wallNow()
	if due.IsZero() {
		due = begin
	}
	root := noSpan
	if traced {
		root = r.tr.beginAt(spanRequest, noSpan, due)
		if begin.After(due) {
			r.tr.end(r.tr.beginAt(spanWait, root, due))
		}
		r.tr.bind(storage(q.Data), root)
	}
	rs, err := victim.RetrieveErr(q, r.z.M)
	end := wallNow()
	if traced {
		r.tr.unbind(storage(q.Data))
		r.tr.end(root)
	}
	c.lat = append(c.lat, end.Sub(due))
	c.done = append(c.done, end)
	c.lag = append(c.lag, begin.Sub(due))
	c.attempted++
	switch {
	case errors.Is(err, retrieval.ErrOverloaded):
		c.sheds++
		c.fail("query %s shed: %v", q.ID, err)
	case err != nil:
		c.errored++
		c.fail("query %s failed: %v", q.ID, err)
	default:
		c.check(wellFormed(rs, r.z.M), "answer for %s is not %d rows in ascending (Dist, ID) order", q.ID, r.z.M)
		if first != nil && *first == nil {
			*first = rs
		}
	}
}

// infallible lets the closed loop drive the in-process engine, which cannot
// fail, through the same request path as the fleet.
type infallible struct{ retrieval.Retriever }

func (v infallible) RetrieveErr(q *video.Video, m int) ([]retrieval.Result, error) {
	return v.Retrieve(q, m), nil
}

func asFallible(v retrieval.Retriever) retrieval.FallibleRetriever {
	if f, ok := v.(retrieval.FallibleRetriever); ok {
		return f
	}
	return infallible{v}
}

// closedLoop has every client issue its clips back to back for dur.
func (r *runner) closedLoop(victim retrieval.FallibleRetriever, pool []*video.Video, dur time.Duration, traced bool, first [][]retrieval.Result) []*client {
	clients := make([]*client, r.z.Clients)
	start := wallNow()
	var wg sync.WaitGroup
	for c := range clients {
		clients[c] = &client{}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; ; i += len(clients) {
				if wallNow().Sub(start) >= dur {
					return
				}
				var slot *[]retrieval.Result
				if first != nil {
					slot = &first[i%len(pool)]
				}
				r.request(clients[c], victim, pool[i%len(pool)], time.Time{}, traced, slot)
			}
		}(c)
	}
	wg.Wait()
	return clients
}

// warmUp drives the victim untraced and unrecorded so that connections,
// pools and caches are in their steady state when measuring starts.
func (r *runner) warmUp(victim retrieval.FallibleRetriever, pool []*video.Video) {
	on := r.tr.enabled()
	if on {
		r.tr.on.Store(false)
		defer r.tr.on.Store(true)
	}
	r.closedLoop(victim, pool, seconds(r.z.WarmupS), false, nil)
}

func gather(clients []*client, m *measurement) (lat, lag []time.Duration, sheds, errored int) {
	for _, c := range clients {
		lat, lag = append(lat, c.lat...), append(lag, c.lag...)
		sheds, errored = sheds+c.sheds, errored+c.errored
		m.merge(&c.tally)
	}
	return lat, lag, sheds, errored
}

// A closed loop runs in segments of about segmentLength with a speed probe
// between them, and each segment is cut into slices of about sliceLength.
const (
	segmentLength = 2 * time.Second
	sliceLength   = 500 * time.Millisecond
)

// saturate is the closed loop both serve workloads gate on: the clients
// keep the victim busy for secs. Every slice gets its own latency sample and
// completion rate, normalised by the slowdown probed around its segment.
func (r *runner) saturate(m *measurement, victim retrieval.FallibleRetriever, pool []*video.Video, secs float64, traced bool, first [][]retrieval.Result) {
	segments := max(int(seconds(secs)/segmentLength), 1)
	segment := seconds(secs) / time.Duration(segments)
	n := max(int(segment/sliceLength), 1)
	length := segment / time.Duration(n)

	var all []time.Duration
	pace := newPace()
	for range segments {
		start := wallNow()
		clients := r.closedLoop(victim, pool, segment, traced, first)
		k := pace.lap()
		lat, _, _, _ := gather(clients, m)
		all = append(all, lat...)
		// The loop runs a request or so past the segment; completions
		// beyond its last whole slice are left out.
		buckets := make([][]time.Duration, n)
		for _, c := range clients {
			for i, at := range c.done {
				if b := int(at.Sub(start) / length); b < n {
					buckets[b] = append(buckets[b], c.lat[i])
				}
			}
		}
		for _, b := range buckets {
			d := summarize(b)
			m.slices = append(m.slices, newSlice(d, d.Mean, float64(d.N)/length.Seconds(), k))
		}
	}
	m.queries += len(all)
	m.latency = summarize(all)
}

// serveClosed is serve_embed: the clients saturate the in-process engine.
func (r *runner) serveClosed(secs float64, traced bool) (*measurement, error) {
	tapped, _ := r.fx.victim(r.tr, nil)
	victim, pool := asFallible(tapped), r.clipPool()
	r.warmUp(victim, pool)

	m := &measurement{}
	first := make([][]retrieval.Result, len(pool))
	r.saturate(m, victim, pool, secs, traced, first)
	r.fx.checkAnswers(&m.tally, pool, first)
	return m, nil
}

// rateResult is the open loop's outcome at one offered rate. Latency counts
// from each request's due time; lag is how late the generator started it.
type rateResult struct {
	RateQPS    float64 `json:"rate_qps"`
	Requests   int     `json:"requests"`
	P50Ms      float64 `json:"p50_ms"`
	P95Ms      float64 `json:"p95_ms"`
	LagP95Ms   float64 `json:"gen_lag_p95_ms"`
	LagGrowing bool    `json:"gen_lag_growing"`
	FailShare  float64 `json:"fail_share"`
	Pass       bool    `json:"pass"`
}

// maxFailShare is the share of requests a rate may fail and still pass.
const maxFailShare = 0.001

// openLoop offers one seeded Poisson schedule: the clients take arrivals in
// order, sleep until each is due and time it from then, so a stall shows up
// as latency of the requests behind it rather than as a lower offered rate.
func (r *runner) openLoop(victim retrieval.FallibleRetriever, pool []*video.Video, sched []time.Duration, traced bool, first [][]retrieval.Result) []*client {
	clients := make([]*client, r.z.Clients)
	var next atomic.Int64
	start := wallNow()
	var wg sync.WaitGroup
	for c := range clients {
		clients[c] = &client{}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := c; ; k += len(clients) {
				i := int(next.Add(1)) - 1
				if i >= len(sched) {
					return
				}
				due := start.Add(sched[i])
				if wait := due.Sub(wallNow()); wait > 0 {
					wallSleep(wait)
				}
				r.request(clients[c], victim, pool[k%len(pool)], due, traced, &first[k%len(pool)])
			}
		}(c)
	}
	wg.Wait()
	return clients
}

// openShare is the part of serve_fleet's time spent on the open loop.
const openShare = 0.5

// serveOpen is serve_fleet. The fleet is first saturated by the closed loop,
// which yields the end-to-end figures, then offered three Poisson rates in
// turn, which yields each rate's latency from due time and the highest rate
// that met the p95 limit without failures or a growing backlog. Those are
// reported, not gated: below capacity the open loop's latency on a shared
// 2-vCPU machine differs by a factor of two between runs of one commit.
func (r *runner) serveOpen(secs float64, traced bool) (*measurement, error) {
	tapped, _ := r.fx.victim(r.tr, nil)
	victim, pool := asFallible(tapped), r.clipPool()
	r.warmUp(victim, pool)

	m := &measurement{}
	first := make([][]retrieval.Result, len(pool))
	r.saturate(m, victim, pool, secs*(1-openShare), traced, first)
	for i, rate := range r.z.Rates {
		rng := rand.New(rand.NewSource(subSeed(r.seed, 31+i)))
		sched := poissonSchedule(rng, rate, seconds(secs*openShare*r.z.RateShares[i]))
		clients := r.openLoop(victim, pool, sched, traced, first)
		lat, lag, sheds, errored := gather(clients, m)
		d := summarize(lat)
		res := rateResult{RateQPS: rate, Requests: d.N, P50Ms: d.P50, P95Ms: d.P95, LagP95Ms: summarize(lag).P95}
		if d.N > 0 {
			res.FailShare = float64(sheds+errored) / float64(d.N)
		}
		for _, c := range clients {
			res.LagGrowing = res.LagGrowing || backlogGrows(c.lag)
		}
		res.Pass = d.N > 0 && d.P95 <= r.z.P95LimitMs && res.FailShare <= maxFailShare && !res.LagGrowing
		m.rates = append(m.rates, res)
		m.queries += len(lat)
	}
	r.fx.checkAnswers(&m.tally, pool, first)
	return m, nil
}

// backlogGrows reports whether one client fell further and further behind
// its schedule: the mean start lag of the last quarter of its requests is
// more than a millisecond and more than twice the first quarter's.
func backlogGrows(lag []time.Duration) bool {
	q := len(lag) / 4
	if q == 0 {
		return false
	}
	mean := func(ds []time.Duration) time.Duration {
		var sum time.Duration
		for _, d := range ds {
			sum += d
		}
		return sum / time.Duration(len(ds))
	}
	head, tail := mean(lag[:q]), mean(lag[len(lag)-q:])
	return tail > time.Millisecond && tail > 2*head
}
