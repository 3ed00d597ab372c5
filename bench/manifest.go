package main

import (
	"encoding/json"

	"duo"
	"duo/internal/retrieval"
)

// workload names one traffic mix. The flags say which parts of the system it
// sets up; run drives it for the given time and returns what it measured.
type workload struct {
	Name string
	Why  string
	// attack workloads steal a surrogate and have one caller; fleet
	// workloads put the victim behind the TCP nodes, with the given
	// admission limits.
	attack, fleet bool
	admission     retrieval.AdmissionConfig
	run           func(*runner, float64, bool) (*measurement, error)
}

var workloads = []*workload{
	{
		Name:   "attack_transfer",
		Why:    "SparseTransfer-bound attacks on the in-process engine: surrogate forward+backward dominates, the victim is a few percent",
		attack: true,
		run:    (*runner).attacks,
	},
	{
		Name:   "attack_query",
		Why:    "query-bound attacks through the 3-node TCP fleet over 20k rows: sequential victim round-trips (embed, scan, wire, merge) dominate",
		attack: true, fleet: true,
		run: (*runner).attacks,
	},
	{
		Name: "serve_embed",
		Why:  "closed-loop Engine.Retrieve on the 48-row gallery: nearly all of a query is the victim forward pass, scan and wire are absent",
		run:  (*runner).serveClosed,
	},
	{
		Name:  "serve_fleet",
		Why:   "the fleet with admission on, saturated by a closed loop, then offered Poisson arrivals at three rates: embed, scan, wire and merge all do real work concurrently",
		fleet: true, admission: retrieval.AdmissionConfig{MaxInFlight: 2, MaxQueue: 2},
		run: (*runner).serveOpen,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// metricDef is one row of BENCHMARK.json's metric tables. Bound is only
// meaningful (and only written) for end-to-end metrics.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// End-to-end metric names. Every workload reports every one of them; what a
// "query" is on each workload is spelled out in README.md.
const (
	mSetupS      = "setup_s"
	mMsPerQuery  = "ms_per_query"
	mQueryP50    = "query_p50_ms"
	mQueryP95    = "query_p95_ms"
	mQueriesPerS = "queries_per_s"
	mPeakRSS     = "peak_rss_mb"
)

// The bounds are sized to the machine, not to taste: over five sets of ten
// runs of one commit on the shared 2-vCPU VM the worst spread (quartile
// distance over median) was 11 % for the timings, 15 % for p95 and 7 % for
// the resident set, and a bound has to clear that by a margin.
var endToEnd = []metricDef{
	{mSetupS, "s", lower, 0.25},
	{mMsPerQuery, "ms", lower, 0.20},
	{mQueryP50, "ms", lower, 0.20},
	{mQueryP95, "ms", lower, 0.25},
	{mQueriesPerS, "1/s", higher, 0.20},
	{mPeakRSS, "MB", lower, 0.20},
}

// perLayer lists the traced run's metrics, outermost layer first. Every
// traced run reports all of them; a layer the workload never enters reads 0.
func perLayer() []metricDef {
	defs := []metricDef{
		{Name: "bench.root_ms", Unit: "ms", Better: lower},
		{Name: "bench.spans", Unit: "count", Better: lower},
		{Name: "bench.trace_overhead_share", Unit: "ratio", Better: lower},
		{Name: "bench.breakdown_residual_share", Unit: "ratio", Better: lower},
		{Name: "setup.system_new_s", Unit: "s", Better: lower},
		{Name: "setup.surrogate_s", Unit: "s", Better: lower},
		{Name: "setup.index_build_s", Unit: "s", Better: lower},
		{Name: "client.max_rate_qps", Unit: "1/s", Better: higher},
		{Name: "client.p99_ms", Unit: "ms", Better: lower},
		{Name: "client.gen_lag_p95_ms", Unit: "ms", Better: lower},
		{Name: "client.wait.busy_ms", Unit: "ms", Better: lower},
		{Name: "core.sparsetransfer.calls", Unit: "count", Better: lower},
		{Name: "core.sparsetransfer.busy_ms", Unit: "ms", Better: lower},
		{Name: "core.sparsetransfer.self_ms", Unit: "ms", Better: lower},
		{Name: "core.sparsequery.calls", Unit: "count", Better: lower},
		{Name: "core.sparsequery.busy_ms", Unit: "ms", Better: lower},
		{Name: "core.sparsequery.self_ms", Unit: "ms", Better: lower},
		{Name: "core.sparsequery.self_us_per_query", Unit: "us", Better: lower},
		{Name: "core.queries_billed", Unit: "count", Better: lower},
		{Name: "core.victim_calls", Unit: "count", Better: lower},
		{Name: "core.improving_step_share", Unit: "ratio", Better: higher},
		{Name: "core.attack_wall_ms_p50", Unit: "ms", Better: lower},
		{Name: "core.ap_gain_pp", Unit: "pp", Better: higher},
		{Name: "core.success_share", Unit: "ratio", Better: higher},
	}
	for i := range fullSizing.Rates {
		defs = append(defs,
			metricDef{Name: rateMetricPrefix(i) + ".p50_ms", Unit: "ms", Better: lower},
			metricDef{Name: rateMetricPrefix(i) + ".p95_ms", Unit: "ms", Better: lower})
	}
	for _, s := range duo.Strategies() {
		defs = append(defs, metricDef{Name: "core.by_strategy." + s + ".ms_per_query", Unit: "ms", Better: lower})
	}
	for _, l := range []string{spanVictimFwd, spanSurrFwd, spanSurrBwd} {
		defs = append(defs,
			metricDef{Name: l + ".calls", Unit: "count", Better: lower},
			metricDef{Name: l + ".busy_ms", Unit: "ms", Better: lower},
			metricDef{Name: l + ".us_per_call", Unit: "us", Better: lower})
	}
	return append(defs,
		metricDef{Name: spanVictimFwd + ".allocs_per_call", Unit: "count", Better: lower},
		metricDef{Name: spanVictimFwd + ".kb_per_call", Unit: "KB", Better: lower},
		metricDef{Name: spanEngine + ".calls", Unit: "count", Better: lower},
		metricDef{Name: spanEngine + ".busy_ms", Unit: "ms", Better: lower},
		metricDef{Name: "retrieval.engine.self_us_per_call", Unit: "us", Better: lower},
		metricDef{Name: "retrieval.engine.batch8.us_per_video", Unit: "us", Better: lower},
		metricDef{Name: spanCluster + ".calls", Unit: "count", Better: lower},
		metricDef{Name: spanCluster + ".busy_ms", Unit: "ms", Better: lower},
		metricDef{Name: "retrieval.cluster.self_us_per_call", Unit: "us", Better: lower},
		metricDef{Name: spanTCP + ".calls", Unit: "count", Better: lower},
		metricDef{Name: spanTCP + ".busy_ms", Unit: "ms", Better: lower},
		metricDef{Name: spanTCP + ".us_per_call", Unit: "us", Better: lower},
		metricDef{Name: spanTCP + ".failed", Unit: "count", Better: lower},
		metricDef{Name: "retrieval.tcp.wire_us_per_call", Unit: "us", Better: lower},
		metricDef{Name: spanShard + ".calls", Unit: "count", Better: lower},
		metricDef{Name: spanShard + ".busy_ms", Unit: "ms", Better: lower},
		metricDef{Name: spanShard + ".us_per_call", Unit: "us", Better: lower},
		metricDef{Name: spanShard + ".rows_per_us", Unit: "1/us", Better: higher},
		metricDef{Name: "retrieval.admission.admitted", Unit: "count", Better: higher},
		metricDef{Name: "retrieval.admission.sheds", Unit: "count", Better: lower},
		metricDef{Name: "retrieval.admission.inflight_highwater", Unit: "count", Better: lower},
		metricDef{Name: "runtime.allocs_per_op", Unit: "count", Better: lower},
		metricDef{Name: "runtime.kb_per_op", Unit: "KB", Better: lower},
		metricDef{Name: "runtime.gc_pause_ms", Unit: "ms", Better: lower},
	)
}

// runSeconds is how long the driver lets one run measure.
const runSeconds = 20

// manifestJSON renders BENCHMARK.json from the tables above, so the file at
// the repository root cannot drift from what the program reports (the test
// compares them).
func manifestJSON() ([]byte, error) {
	type workloadRow struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layerRow struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadRow `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []layerRow    `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, workloadRow{w.Name, w.Why})
	}
	for _, d := range perLayer() {
		doc.PerLayer = append(doc.PerLayer, layerRow{d.Name, d.Unit, d.Better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	return append(out, '\n'), err
}
