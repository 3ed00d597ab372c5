package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"duo/internal/retrieval"
)

// runner drives one workload on one fixture.
type runner struct {
	w    *workload
	z    sizing
	seed int64
	fx   *fixture
	tr   *tracer
}

// measurement is what one timed window produced.
type measurement struct {
	tally
	// The end-to-end view, always from a closed loop: one slice per attack
	// or per half second of serving, which headline condenses, and the
	// pooled caller-side latency sample.
	slices  []slice
	latency distribution
	// The attack loops' latency figures, which no slice carries: see
	// calmLatency. callGroups is the number of call groups behind them.
	callP50Ms, callP95Ms float64
	callGroups           int
	// queries counts the victim queries answered in the window.
	queries     int
	victimCalls int
	attacks     []attackResult
	rates       []rateResult
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// verdict is the line the driver reads: exactly these four keys.
type verdict struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result is one run's report: the verdict, and what the -out file adds to
// it for people and for -compare.
type result struct {
	verdict

	Workload string `json:"workload"`
	Trace    int    `json:"trace"`
	// Samples states how many samples stand behind the figures: latency
	// samples, queries, attacks, and the highest percentile the latency
	// sample supports with ten samples beyond it.
	Samples map[string]float64 `json:"samples"`
	// Slices is the end-to-end view of every slice of the run, in order.
	Slices []slice `json:"slices,omitempty"`
	// Rates is the open loop's outcome at each offered rate.
	Rates        []rateResult `json:"rates,omitempty"`
	Fingerprints []string     `json:"fingerprints,omitempty"`
	Notes        []string     `json:"notes,omitempty"`
}

// defs lists the metrics a run of this kind reports, in print order.
func (res *result) defs() []metricDef {
	if res.Trace == 0 {
		return endToEnd
	}
	return perLayer()
}

// set fills in the run's metrics; a name without a value reads 0.
func (res *result) set(values map[string]float64) {
	defs := res.defs()
	res.Metrics = make(map[string]metricValue, len(defs))
	for _, d := range defs {
		res.Metrics[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
}

func (res *result) finish(t *tally) {
	res.Attempted, res.Failed, res.Notes = max(t.attempted, 1), t.failed, t.notes
	res.Correct = t.failed == 0
}

func (m *measurement) samples(secs float64) map[string]float64 {
	return map[string]float64{
		"measured_for_seconds": secs,
		"queries":              float64(m.queries),
		"attacks":              float64(len(m.attacks)),
		"slices":               float64(len(m.slices)),
		"latency_groups":       float64(m.callGroups),
		"latency_samples":      float64(m.latency.N),
		"latency_tail_level":   m.latency.TailLevel,
		"latency_tail_ms":      m.latency.TailMs,
		"machine_slowdown":     m.headline().Slowdown,
	}
}

func fingerprints(as []attackResult) []string {
	var out []string
	for _, a := range as {
		out = append(out, fmt.Sprintf("%s:%016x", a.strategy, a.fingerprint))
	}
	return out
}

// runUntraced produces the end-to-end metrics: the system is set up
// z.Setups times from the seed (setup_s condenses them like any other
// slices), the last one is measured for secs, and nothing but the victim
// tap's stopwatch sits between the load and the program.
func runUntraced(w *workload, z sizing, seed int64, secs float64) (*result, error) {
	var fx *fixture
	var setups []float64
	for i := 0; i < z.Setups; i++ {
		if fx != nil {
			fx.close()
		}
		// Collect the previous set-up's garbage (and, the last time round,
		// this one's) before it can inflate the next phase's peak.
		fx = nil
		runtime.GC()
		var err error
		pace := newPace()
		if fx, err = setUp(w, z, seed, nil); err != nil {
			return nil, err
		}
		setups = append(setups, fx.parts.total().Seconds()/pace.lap())
	}
	defer fx.close()
	runtime.GC()

	r := &runner{w: w, z: z, seed: seed, fx: fx}
	m, err := w.run(r, secs, false)
	if err != nil {
		return nil, err
	}
	res := &result{Workload: w.Name, Samples: m.samples(secs), Slices: m.slices, Rates: m.rates, Fingerprints: fingerprints(m.attacks)}
	h := m.headline()
	res.set(map[string]float64{
		mSetupS:      bestQuartile(setups, lower),
		mMsPerQuery:  h.MsPerQuery,
		mQueryP50:    h.P50Ms,
		mQueryP95:    h.P95Ms,
		mQueriesPerS: h.QueriesPerS,
		mPeakRSS:     peakRSSMB(),
	})
	res.finish(&m.tally)
	return res, nil
}

// Shares of a traced run's time: a short untraced reference window first
// (its ms_per_query is the base of trace_overhead_share, and the attack
// fingerprints it yields are what the traced replay must reproduce), then
// the traced window.
const (
	referenceShare = 0.25
	tracedShare    = 1 - referenceShare
	// maxResidualShare is how much of the request roots' time may lie
	// outside every layer span before the breakdown counts as incomplete.
	maxResidualShare = 0.05
)

// runTraced produces the per-layer metrics from one set-up wired with the
// span-recording decorators.
func runTraced(w *workload, z sizing, seed int64, secs float64, spansPath string) (*result, error) {
	tr := newTracer(z.FleetNodes)
	fx, err := setUp(w, z, seed, tr)
	if err != nil {
		return nil, err
	}
	defer fx.close()
	r := &runner{w: w, z: z, seed: seed, fx: fx, tr: tr}
	calib := r.calibrate()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ref, err := w.run(r, secs*referenceShare, false)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&after)

	tr.on.Store(true)
	m, err := w.run(r, secs*tracedShare, true)
	tr.on.Store(false)
	if err != nil {
		return nil, err
	}

	t := &tally{}
	t.merge(&ref.tally)
	t.merge(&m.tally)
	for i := 0; i < min(len(ref.attacks), len(m.attacks)); i++ {
		t.check(ref.attacks[i].fingerprint == m.attacks[i].fingerprint,
			"attack %d (%s): the traced stage-by-stage replay produced another adversarial video than core.Run", i, m.attacks[i].strategy)
	}
	b := analyze(tr.spans)
	t.check(tr.orphans == 0, "%d spans found no parent", tr.orphans)
	residual := 0.0
	if b.Root > 0 {
		residual = float64(b.RootSelf) / float64(b.Root)
	}
	t.check(residual <= maxResidualShare, "%.1f%% of the request time is outside every layer span (limit %.0f%%)", 100*residual, 100*maxResidualShare)
	if spansPath != "" {
		if err := writeJSONL(spansPath, tr.spans); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	}

	values := layerValues(r, b, m, calib)
	values["bench.breakdown_residual_share"] = residual
	if base := ref.headline().MsPerQuery; base > 0 {
		values["bench.trace_overhead_share"] = (m.headline().MsPerQuery - base) / base
	}
	ops := float64(max(ref.queries, 1))
	values["runtime.allocs_per_op"] = float64(after.Mallocs-before.Mallocs) / ops
	values["runtime.kb_per_op"] = float64(after.TotalAlloc-before.TotalAlloc) / 1024 / ops
	values["runtime.gc_pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6

	res := &result{Workload: w.Name, Trace: 1, Samples: m.samples(secs * tracedShare), Rates: m.rates, Fingerprints: fingerprints(m.attacks)}
	res.set(values)
	res.finish(t)
	return res, nil
}

// calibration holds the figures measured on the side, single-threaded and
// outside the timed window, because measuring them in it would disturb it.
type calibration struct {
	forwardAllocs, forwardKB float64
	batch8UsPerVideo         float64
}

const (
	calibrationPasses = 32 // forward passes behind allocs/KB per call
	calibrationBatch  = 8  // clips per RetrieveBatch
	calibrationRuns   = 5  // batches timed; the fastest counts
)

func (r *runner) calibrate() calibration {
	var c calibration
	clip := r.fx.queries[0].Data
	r.fx.raw.Forward(clip) // warm any lazily sized scratch
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range calibrationPasses {
		r.fx.raw.Forward(clip)
	}
	runtime.ReadMemStats(&after)
	c.forwardAllocs = float64(after.Mallocs-before.Mallocs) / calibrationPasses
	c.forwardKB = float64(after.TotalAlloc-before.TotalAlloc) / 1024 / calibrationPasses

	// The engine NewSystem built is there on every workload, whichever
	// victim the workload itself drives.
	if batcher, ok := r.fx.sys.Victim.(retrieval.BatchRetriever); ok {
		batch := r.fx.queries[:calibrationBatch]
		var best time.Duration
		for i := 0; i < calibrationRuns; i++ {
			start := wallNow()
			batcher.RetrieveBatch(batch, r.z.M)
			if d := wallNow().Sub(start); i == 0 || d < best {
				best = d
			}
		}
		c.batch8UsPerVideo = float64(best.Microseconds()) / calibrationBatch
	}
	return c
}

// layerValues turns the trace, the traced window's own counts and the
// calibration into the per-layer metric values.
func layerValues(r *runner, b breakdown, m *measurement, calib calibration) map[string]float64 {
	v := map[string]float64{
		"bench.root_ms":       ms(b.Root),
		"bench.spans":         float64(len(r.tr.spans)),
		"setup.system_new_s":  r.fx.parts.SystemNew.Seconds(),
		"setup.surrogate_s":   r.fx.parts.Surrogate.Seconds(),
		"setup.index_build_s": r.fx.parts.IndexBuild.Seconds(),
		"client.wait.busy_ms": ms(b.Layers[spanWait].Busy),

		spanVictimFwd + ".allocs_per_call":     calib.forwardAllocs,
		spanVictimFwd + ".kb_per_call":         calib.forwardKB,
		"retrieval.engine.batch8.us_per_video": calib.batch8UsPerVideo,
	}
	perCall := func(d time.Duration, calls int) float64 {
		if calls == 0 {
			return 0
		}
		return float64(d.Microseconds()) / float64(calls)
	}
	for _, name := range []string{spanVictimFwd, spanSurrFwd, spanSurrBwd, spanTCP, spanShard, spanEngine, spanCluster, spanTransfer, spanQuery} {
		l := b.Layers[name]
		v[name+".calls"] = float64(l.Calls)
		v[name+".busy_ms"] = ms(l.Busy)
		v[name+".us_per_call"] = perCall(l.Busy, l.Calls)
		v[name+".self_ms"] = ms(l.Self)
	}
	v["retrieval.engine.self_us_per_call"] = perCall(b.Layers[spanEngine].Self, b.Layers[spanEngine].Calls)
	v["retrieval.cluster.self_us_per_call"] = perCall(b.Layers[spanCluster].Self, b.Layers[spanCluster].Calls)
	// What the wire, the codec and the node's admission cost: the client
	// side of a node call minus the scan it waited for.
	v["retrieval.tcp.wire_us_per_call"] = perCall(b.Layers[spanTCP].Self, b.Layers[spanTCP].Calls)

	if r.fx.fleet != nil {
		rows := float64(b.Layers[spanShard].Calls) * float64(len(r.fx.gallery)) / float64(r.z.FleetNodes)
		if busy := b.Layers[spanShard].Busy; busy > 0 {
			v[spanShard+".rows_per_us"] = rows / float64(busy.Microseconds())
		}
		for i, s := range r.fx.fleet.servers {
			a := s.AdmissionStats()
			v["retrieval.admission.admitted"] += float64(a.Admitted)
			v["retrieval.admission.sheds"] += float64(a.Sheds)
			v["retrieval.admission.inflight_highwater"] = max(v["retrieval.admission.inflight_highwater"], float64(a.HighWater))
			v[spanTCP+".failed"] += float64(r.fx.fleet.transports[i].failed.Load())
		}
	}

	// The closed loop's p99 everywhere; the open loop's figures where it ran,
	// the generator's lateness being the middle rate's.
	v["client.p99_ms"] = m.latency.P99
	for i, rr := range m.rates {
		prefix := rateMetricPrefix(i)
		v[prefix+".p50_ms"], v[prefix+".p95_ms"] = rr.P50Ms, rr.P95Ms
		if rr.Pass {
			v["client.max_rate_qps"] = max(v["client.max_rate_qps"], rr.RateQPS)
		}
		if i == len(m.rates)/2 {
			v["client.gen_lag_p95_ms"] = rr.LagP95Ms
		}
	}

	if len(m.attacks) > 0 {
		wallMs, billed := map[string]float64{}, map[string]float64{}
		var walls []float64
		var gain, wins, improving, steps float64
		for _, a := range m.attacks {
			wallMs[a.strategy] += ms(a.wall)
			billed[a.strategy] += float64(a.queries)
			walls = append(walls, ms(a.wall))
			gain += a.apAfter - a.apBefore
			if a.apAfter > a.apBefore {
				wins++
			}
			improving, steps = improving+float64(a.improving), steps+float64(a.steps)
		}
		n := float64(len(m.attacks))
		v["core.queries_billed"] = float64(m.queries)
		v["core.victim_calls"] = float64(m.victimCalls)
		v["core.attack_wall_ms_p50"] = median(walls)
		v["core.ap_gain_pp"] = gain / n
		v["core.success_share"] = wins / n
		if steps > 0 {
			v["core.improving_step_share"] = improving / steps
		}
		v["core.sparsequery.self_us_per_query"] = perCall(b.Layers[spanQuery].Self, m.queries)
		for name, q := range billed {
			v["core.by_strategy."+name+".ms_per_query"] = wallMs[name] / q
		}
	}
	return v
}

// rateMetricPrefix names the i-th open-loop rate after the full sizing's
// plan, so BENCHMARK.json's names hold at every size.
func rateMetricPrefix(i int) string {
	return fmt.Sprintf("client.rate%.0f", fullSizing.Rates[i])
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
