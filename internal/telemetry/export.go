package telemetry

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"time"
)

// Snapshot is a point-in-time copy of every instrument in a registry,
// shaped for JSON export (`/metrics.json`, expvar, `/fleet.json`) and for
// cross-node aggregation (JSON over the stats probe, then Merge/MergeAll).
// JSON encoding emits map keys sorted, so two snapshots of equal state
// marshal to identical bytes.
type Snapshot struct {
	Counters   map[string]int64          `json:"counters,omitempty"`
	Gauges     map[string]int64          `json:"gauges,omitempty"`
	Histograms map[string]HistogramStats `json:"histograms,omitempty"`
	Rings      map[string][]float64      `json:"rings,omitempty"`
}

// Snapshot captures the registry's current state. A nil registry yields an
// empty snapshot. Individual instruments are read atomically; the snapshot
// as a whole is taken without stopping writers, which is safe because
// every exported value is either a single atomic read or a consistent
// bucket sum (see Histogram.Stats).
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramStats{},
		Rings:      map[string][]float64{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	rings := make(map[string]*Ring, len(r.rings))
	for k, v := range r.rings {
		rings[k] = v
	}
	r.mu.Unlock()

	for k, v := range counters {
		s.Counters[k] = v.Value()
	}
	for k, v := range gauges {
		s.Gauges[k] = v.Value()
	}
	for k, v := range hists {
		s.Histograms[k] = v.Stats()
	}
	for k, v := range rings {
		s.Rings[k] = v.Values()
	}
	return s
}

// MetricsHandler serves the registry snapshot as pretty-printed JSON.
func (r *Registry) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(r.Snapshot())
	})
}

// PublishExpvar exposes the registry under the given expvar name (visible
// at /debug/vars). Publishing the same name twice is a no-op rather than
// the expvar.Publish panic, so wiring code can run more than once.
func (r *Registry) PublishExpvar(name string) {
	if expvar.Get(name) != nil {
		return
	}
	expvar.Publish(name, expvar.Func(func() any { return r.Snapshot() }))
}

// AdminMux builds the operational endpoint set served by `retrievald
// -admin`: the registry snapshot, the process expvars, and pprof.
func AdminMux(r *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics.json", r.MetricsHandler())
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Summary renders the registry as an aligned text table (the `-telemetry`
// output of duoattack/duobench); see Snapshot.Render.
func (r *Registry) Summary() string { return r.Snapshot().Render() }

// Render renders the snapshot as an aligned text table: counters and
// gauges first, then one row per histogram with count, mean, and latency
// quantiles, then the rings. Histogram names ending in "_ns" are formatted
// as durations. Every section walks names in sorted order, so the output
// for equal state is byte-stable across runs (the same contract
// /fleet.json gets from encoding/json's sorted map keys) — duostat renders
// merged fleet snapshots through this same path.
func (s *Snapshot) Render() string {
	var b strings.Builder
	b.WriteString("== telemetry ==\n")

	// Counters and gauges share one sorted list of names; a name of both
	// kinds gets both rows, the counter's first.
	names := make([]string, 0, len(s.Counters)+len(s.Gauges))
	for k := range s.Counters {
		names = append(names, k)
	}
	for k := range s.Gauges {
		if _, dup := s.Counters[k]; !dup {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	for _, k := range names {
		if v, ok := s.Counters[k]; ok {
			fmt.Fprintf(&b, "%-36s %12d\n", k, v)
		}
		if v, ok := s.Gauges[k]; ok {
			fmt.Fprintf(&b, "%-36s %12d (gauge)\n", k, v)
		}
	}

	hnames := sortedKeys(s.Histograms)
	if len(hnames) > 0 {
		fmt.Fprintf(&b, "%-36s %8s %10s %10s %10s %10s\n",
			"stage", "count", "mean", "p50", "p95", "p99")
	}
	for _, k := range hnames {
		st := s.Histograms[k]
		if strings.HasSuffix(k, "_ns") {
			fmt.Fprintf(&b, "%-36s %8d %10s %10s %10s %10s\n", k, st.Count,
				fmtNs(st.Mean), fmtNs(st.P50), fmtNs(st.P95), fmtNs(st.P99))
		} else {
			fmt.Fprintf(&b, "%-36s %8d %10.3g %10.3g %10.3g %10.3g\n", k, st.Count,
				st.Mean, st.P50, st.P95, st.P99)
		}
	}

	for _, k := range sortedKeys(s.Rings) {
		vs := s.Rings[k]
		if len(vs) == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-36s %d samples, last %.6g\n", k, len(vs), vs[len(vs)-1])
	}
	return b.String()
}

// fmtNs renders a nanosecond quantity as a rounded duration.
func fmtNs(ns float64) string {
	d := time.Duration(ns)
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(time.Microsecond).String()
	}
	return d.Round(time.Nanosecond).String()
}
