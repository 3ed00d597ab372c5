// Command duostat is the fleet observability console: it reads the
// /fleet.json endpoint served by `retrievald -admin` (node or
// coordinator mode) and renders the cluster-wide telemetry rollup — node
// reachability, per-node load and scan quantiles, shed counts, breaker
// states — plus multi-window SLO burn rates when polling.
//
//	duostat http://127.0.0.1:8080                     one-shot fleet view
//	duostat -watch -interval 1s -count 10 <url>       poll; adds qps + SLO burn
//	duostat -diff before.json after.json              compare two saved views
//	duostat -record <url> > flight.jsonl              rings + recent spans, JSONL
//
// The watch loop drives the clockless SLO engine (internal/telemetry/slo)
// with one tick per poll: qps and burn rates are computed from the
// declared -interval and the per-tick counter deltas, never from a
// measured wall clock, so a recorded sequence of fleet views always
// replays to the same numbers.
//
// -record is the flight recorder: it pulls /fleet.json?rings=1 (the
// recent-sample rings every node keeps) and the coordinator's finished
// spans from /trace.jsonl, and emits both as typed JSONL for offline
// analysis. Each line carries a "type" discriminator: fleet, ring, span,
// or note.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strings"
	"time"

	"duo/internal/diffview"
	"duo/internal/retrieval"
	"duo/internal/telemetry"
	"duo/internal/telemetry/slo"
	"duo/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "duostat:", err)
		os.Exit(1)
	}
}

const usage = `usage:
  duostat [flags] <url>            one-shot fleet view from /fleet.json
  duostat -watch [flags] <url>     poll the fleet; adds qps and SLO burn
  duostat -diff <a.json> <b.json>  compare two saved fleet views
  duostat -record <url>            flight-recorder dump (rings + spans) as JSONL`

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("duostat", flag.ContinueOnError)
	fs.SetOutput(w)
	var (
		watch    = fs.Bool("watch", false, "poll the fleet every -interval and report deltas + SLO burn")
		interval = fs.Duration("interval", time.Second, "watch poll cadence; also the qps denominator")
		count    = fs.Int("count", 0, "watch: stop after this many polls (0 = until interrupted)")
		diffMode = fs.Bool("diff", false, "compare two saved fleet views (two file arguments)")
		record   = fs.Bool("record", false, "dump flight-recorder JSONL (rings + recent spans) to stdout")
		full     = fs.Bool("full", false, "also render the merged fleet telemetry table")

		sloTarget  = fs.Float64("slo-target", 0.999, "SLO target for both objectives, in (0,1)")
		sloGood    = fs.String("slo-good", "node.admission.admitted", "availability objective: good-event counter")
		sloBad     = fs.String("slo-bad", "node.admission.shed", "availability objective: bad-event counter")
		sloHist    = fs.String("slo-hist", "shard.scan_ns", "latency objective: bucketed histogram name")
		sloLatency = fs.Duration("slo-latency", 0, "latency objective: good-latency bound (0 disables the objective)")
		sloFast    = fs.Int("slo-fast", 0, "SLO fast window in ticks (0 = default 5)")
		sloSlow    = fs.Int("slo-slow", 0, "SLO slow window in ticks (0 = default 60)")
		sloPage    = fs.Float64("slo-page", 0, "SLO page-burn threshold (0 = default 14.4)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	switch {
	case *diffMode:
		if fs.NArg() != 2 {
			return fmt.Errorf("-diff wants two saved fleet views\n%s", usage)
		}
		a, err := loadView(fs.Arg(0))
		if err != nil {
			return err
		}
		b, err := loadView(fs.Arg(1))
		if err != nil {
			return err
		}
		diffViews(w, [2]string{fs.Arg(0), fs.Arg(1)}, [2]*retrieval.FleetView{a, b})
		return nil

	case fs.NArg() != 1:
		return fmt.Errorf("want one fleet URL\n%s", usage)

	case *record:
		return recordFlight(w, fs.Arg(0))

	case *watch:
		ev, err := newEvaluator(*sloTarget, *sloGood, *sloBad, *sloHist, *sloLatency,
			slo.Config{FastWindow: *sloFast, SlowWindow: *sloSlow, PageBurn: *sloPage})
		if err != nil {
			return err
		}
		return watchFleet(w, fs.Arg(0), *interval, *count, ev)

	default:
		view, err := fetchView(fs.Arg(0), false)
		if err != nil {
			return err
		}
		renderView(w, view, *full)
		return nil
	}
}

// fleetURL normalizes a user-supplied target into a /fleet.json URL:
// a bare host:port gets the scheme and path filled in, a full URL is
// kept, and rings=1 is appended when the caller wants ring samples.
func fleetURL(arg string, rings bool) (string, error) {
	if !strings.Contains(arg, "://") {
		arg = "http://" + arg
	}
	u, err := url.Parse(arg)
	if err != nil {
		return "", fmt.Errorf("bad fleet URL %q: %w", arg, err)
	}
	if u.Path == "" || u.Path == "/" {
		u.Path = "/fleet.json"
	}
	if rings {
		q := u.Query()
		q.Set("rings", "1")
		u.RawQuery = q.Encode()
	}
	return u.String(), nil
}

// siblingURL points at another admin endpoint on the same server.
func siblingURL(arg, path string) (string, error) {
	s, err := fleetURL(arg, false)
	if err != nil {
		return "", err
	}
	u, _ := url.Parse(s)
	u.Path, u.RawQuery = path, ""
	return u.String(), nil
}

func fetchView(arg string, rings bool) (*retrieval.FleetView, error) {
	s, err := fleetURL(arg, rings)
	if err != nil {
		return nil, err
	}
	resp, err := http.Get(s)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("GET %s: status %d: %s", s, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	var view retrieval.FleetView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		return nil, fmt.Errorf("GET %s: not a fleet view: %w", s, err)
	}
	return &view, nil
}

func loadView(path string) (*retrieval.FleetView, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var view retrieval.FleetView
	if err := json.Unmarshal(b, &view); err != nil {
		return nil, fmt.Errorf("%s: not a fleet view: %w", path, err)
	}
	return &view, nil
}

// newEvaluator builds the watch loop's SLO engine: an availability
// objective over admitted-vs-shed, plus a latency objective when a
// threshold was given.
func newEvaluator(target float64, good, bad, hist string, threshold time.Duration, cfg slo.Config) (*slo.Evaluator, error) {
	objs := []slo.Objective{{Name: "availability", Good: good, Bad: bad, Target: target}}
	if threshold > 0 {
		objs = append(objs, slo.Objective{
			Name:        "latency",
			Histogram:   hist,
			ThresholdNs: float64(threshold.Nanoseconds()),
			Target:      target,
		})
	}
	return slo.NewEvaluator(cfg, objs...)
}

// suffixSum totals every counter whose name ends in the given suffix —
// ".queries" matches shard.queries and pq.queries alike, so the rollup
// works for exact and quantized nodes without knowing the engine.
func suffixSum(s *telemetry.Snapshot, suffix string) int64 {
	if s == nil {
		return 0
	}
	var total int64
	for k, v := range s.Counters {
		if strings.HasSuffix(k, suffix) {
			total += v
		}
	}
	return total
}

// scanStats picks the busiest scan histogram from a snapshot (shard or
// pq engine), for the quantile columns. Counts tie whenever two scan
// histograms are timed once per query (an engine's *.scan_ns and its PQ
// index's pq.adc_ns, or a fleet of exact and PQ nodes). A tie goes to
// the *.scan_ns, which covers the re-rank, so exact and PQ rows compare
// like for like, and then to the smaller name: the pick never depends on
// map order.
func scanStats(s *telemetry.Snapshot) (telemetry.HistogramStats, bool) {
	if s == nil {
		return telemetry.HistogramStats{}, false
	}
	var best telemetry.HistogramStats
	bestName, found := "", false
	for k, st := range s.Histograms {
		if !strings.HasSuffix(k, "scan_ns") && !strings.HasSuffix(k, "adc_ns") {
			continue
		}
		if !found || scanRanksBefore(k, st.Count, bestName, best.Count) {
			best, bestName, found = st, k, true
		}
	}
	return best, found
}

// scanRanksBefore orders scan histograms by count, then *.scan_ns before
// *.adc_ns, then by name.
func scanRanksBefore(a string, countA int64, b string, countB int64) bool {
	if countA != countB {
		return countA > countB
	}
	if scanA, scanB := strings.HasSuffix(a, "scan_ns"), strings.HasSuffix(b, "scan_ns"); scanA != scanB {
		return scanA
	}
	return a < b
}

func fmtNs(ns float64) string {
	return time.Duration(ns).Round(time.Microsecond).String()
}

// renderView prints the one-shot fleet report: the reachability header,
// the per-node table, the merged totals, and the coordinator's breaker
// panel.
func renderView(w io.Writer, view *retrieval.FleetView, full bool) {
	fmt.Fprintf(w, "fleet: %d/%d nodes reachable, %d indexed\n", view.Reachable, view.Nodes, view.Size)
	fmt.Fprintf(w, "%4s  %-21s %6s %10s %8s %10s %10s\n",
		"node", "addr", "size", "queries", "shed", "scan p50", "scan p99")
	for _, fn := range view.PerNode {
		if fn.Err != "" {
			fmt.Fprintf(w, "%4d  %-21s %6s %10s %8s  unreachable: %s\n", fn.Node, fn.Addr, "-", "-", "-", fn.Err)
			continue
		}
		p50, p99 := "-", "-"
		if st, ok := scanStats(fn.Snapshot); ok {
			p50, p99 = fmtNs(st.P50), fmtNs(st.P99)
		}
		fmt.Fprintf(w, "%4d  %-21s %6d %10d %8d %10s %10s\n",
			fn.Node, fn.Addr, fn.Size,
			suffixSum(fn.Snapshot, ".queries"), suffixSum(fn.Snapshot, ".shed"),
			p50, p99)
	}
	if view.Fleet != nil {
		line := fmt.Sprintf("fleet totals: queries %d, shed %d",
			suffixSum(view.Fleet, ".queries"), suffixSum(view.Fleet, ".shed"))
		if st, ok := scanStats(view.Fleet); ok {
			line += fmt.Sprintf(", scan p99 %s", fmtNs(st.P99))
		}
		fmt.Fprintln(w, line)
	}
	renderBreakers(w, view.Coordinator)
	if full && view.Fleet != nil {
		fmt.Fprint(w, view.Fleet.Render())
	}
}

// renderBreakers prints the coordinator's per-node breaker states, the
// one cluster-side signal an operator reads first during an incident.
func renderBreakers(w io.Writer, coord *telemetry.Snapshot) {
	if coord == nil {
		return
	}
	var names []string
	for k := range coord.Gauges {
		if strings.HasSuffix(k, ".breaker_state") {
			names = append(names, k)
		}
	}
	if len(names) == 0 {
		return
	}
	sort.Strings(names)
	parts := make([]string, 0, len(names))
	for _, k := range names {
		label := strings.TrimSuffix(strings.TrimPrefix(k, "cluster."), ".breaker_state")
		parts = append(parts, fmt.Sprintf("%s %s", label, retrieval.BreakerState(coord.Gauges[k])))
	}
	fmt.Fprintf(w, "breakers: %s\n", strings.Join(parts, ", "))
}

// watchFleet polls the fleet and prints one delta line per tick plus the
// SLO burn table. qps comes from the declared interval, not a measured
// clock, so a fixed snapshot sequence renders identically every run.
func watchFleet(w io.Writer, arg string, interval time.Duration, count int, ev *slo.Evaluator) error {
	if interval <= 0 {
		return fmt.Errorf("-interval must be positive")
	}
	tick := time.NewTicker(interval) //duolint:allow walltime operator poll cadence; qps math uses the declared interval
	defer tick.Stop()
	var prevQueries, prevShed int64
	for n := 1; count == 0 || n <= count; n++ {
		view, err := fetchView(arg, false)
		if err != nil {
			return err
		}
		queries, shed := suffixSum(view.Fleet, ".queries"), suffixSum(view.Fleet, ".shed")
		reports := ev.Tick(view.Fleet)
		if n == 1 {
			fmt.Fprintf(w, "[tick %d] fleet %d/%d: %d queries, %d shed (baseline)\n",
				n, view.Reachable, view.Nodes, queries, shed)
		} else {
			qps := float64(queries-prevQueries) / interval.Seconds()
			fmt.Fprintf(w, "[tick %d] fleet %d/%d: %d queries (+%d, %.1f qps), %d shed (+%d)\n",
				n, view.Reachable, view.Nodes, queries, queries-prevQueries, qps, shed, shed-prevShed)
			for _, r := range reports {
				line := fmt.Sprintf("  slo %-14s fast burn %6.2f  slow burn %6.2f  target %.2f%%",
					r.Objective, r.FastBurn, r.SlowBurn, 100*r.Target)
				if r.Page {
					line += "  PAGE"
				}
				fmt.Fprintln(w, line)
			}
		}
		prevQueries, prevShed = queries, shed
		if count == 0 || n < count {
			<-tick.C
		}
	}
	return nil
}

// fingerprint hashes a view's canonical JSON re-encoding, so two files
// that differ only in formatting still compare equal.
func fingerprint(v *retrieval.FleetView) string {
	return diffview.Fingerprint(json.Marshal(v))
}

// diffViews mirrors `duotrace diff` for fleet views: identical
// fingerprints short-circuit; otherwise every counter and histogram
// count is compared name by name, changed rows marked with *.
func diffViews(w io.Writer, names [2]string, vs [2]*retrieval.FleetView) {
	fa, fb := fingerprint(vs[0]), fingerprint(vs[1])
	if fa == fb {
		fmt.Fprintf(w, "fleet views are IDENTICAL (fingerprint %s, %d/%d nodes)\n",
			fa, vs[0].Reachable, vs[0].Nodes)
		return
	}
	fmt.Fprintf(w, "fleet views differ: %s (%d/%d nodes) vs %s (%d/%d nodes)\n",
		fa, vs[0].Reachable, vs[0].Nodes, fb, vs[1].Reachable, vs[1].Nodes)

	var counters, hists [2]map[string]int64
	for i, v := range vs {
		counters[i], hists[i] = map[string]int64{}, map[string]int64{}
		if v.Fleet != nil {
			counters[i] = v.Fleet.Counters
			for k, h := range v.Fleet.Histograms {
				hists[i][k] = h.Count
			}
		}
	}
	fmt.Fprintf(w, "\nfleet counters: value (%s → %s)\n", names[0], names[1])
	diffview.Rows(w, 36, counters[0], counters[1], func(a, b int64) string {
		return fmt.Sprintf("%d → %d", a, b)
	})
	if len(hists[0])+len(hists[1]) > 0 {
		fmt.Fprintf(w, "\nfleet histograms: count (a → b)\n")
		diffview.Rows(w, 36, hists[0], hists[1], func(a, b int64) string {
			return fmt.Sprintf("×%d → ×%d", a, b)
		})
	}
}

// flightLine is one JSONL record in a -record dump.
type flightLine struct {
	Type string `json:"type"`
	// fleet line
	Nodes     int `json:"nodes,omitempty"`
	Reachable int `json:"reachable,omitempty"`
	Size      int `json:"size,omitempty"`
	// ring line
	Scope   string    `json:"scope,omitempty"` // "node<i>" or "coordinator"
	Addr    string    `json:"addr,omitempty"`
	Name    string    `json:"name,omitempty"`
	Samples []float64 `json:"samples,omitempty"`
	// span line
	Span *trace.Record `json:"span,omitempty"`
	// note line
	Msg string `json:"msg,omitempty"`
}

// recordFlight dumps the flight recorder: every node's ring samples
// (pulled with ?rings=1) and the server's finished spans, one typed
// JSON object per line. Spans degrade to a note when the server runs
// without a tracer.
func recordFlight(w io.Writer, arg string) error {
	view, err := fetchView(arg, true)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(flightLine{Type: "fleet", Nodes: view.Nodes, Reachable: view.Reachable, Size: view.Size}); err != nil {
		return err
	}
	emitRings := func(scope, addr string, s *telemetry.Snapshot) error {
		if s == nil {
			return nil
		}
		names := make([]string, 0, len(s.Rings))
		for k := range s.Rings {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			if len(s.Rings[k]) == 0 {
				continue
			}
			if err := enc.Encode(flightLine{Type: "ring", Scope: scope, Addr: addr, Name: k, Samples: s.Rings[k]}); err != nil {
				return err
			}
		}
		return nil
	}
	for _, fn := range view.PerNode {
		if err := emitRings(fmt.Sprintf("node%d", fn.Node), fn.Addr, fn.Snapshot); err != nil {
			return err
		}
	}
	if err := emitRings("coordinator", "", view.Coordinator); err != nil {
		return err
	}

	spanURL, err := siblingURL(arg, "/trace.jsonl")
	if err != nil {
		return err
	}
	resp, err := http.Get(spanURL)
	if err == nil && resp.StatusCode == http.StatusOK {
		recs, rerr := trace.ReadJSONL(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			return enc.Encode(flightLine{Type: "note", Msg: "trace unavailable: " + rerr.Error()})
		}
		for i := range recs {
			if err := enc.Encode(flightLine{Type: "span", Span: &recs[i]}); err != nil {
				return err
			}
		}
		return nil
	}
	if resp != nil {
		resp.Body.Close()
	}
	return enc.Encode(flightLine{Type: "note", Msg: "trace unavailable: no /trace.jsonl on this server"})
}
