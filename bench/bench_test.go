package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestSmoke drives every workload, untraced and traced, at the smoke size
// through the same entry point the command uses, and checks the contract of
// the output: every metric by name, and last one JSON line per workload with
// exactly the four keys the driver reads.
func TestSmoke(t *testing.T) {
	for _, trace := range []int{0, 1} {
		var out bytes.Buffer
		dir := t.TempDir()
		o := options{workload: "all", seed: 5, seconds: 0.3, trace: trace, smoke: true,
			out: filepath.Join(dir, "out.json"), spans: filepath.Join(dir, "spans.jsonl")}
		if err := run(&out, o); err != nil {
			t.Fatalf("trace %d: %v\n%s", trace, err, out.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		defs := endToEnd
		if trace == 1 {
			defs = perLayer()
		}
		for i, w := range workloads {
			var got map[string]json.RawMessage
			line := lines[len(lines)-len(workloads)+i]
			if err := json.Unmarshal([]byte(line), &got); err != nil {
				t.Fatalf("%s trace %d: result line %q: %v", w.Name, trace, line, err)
			}
			if len(got) != 4 {
				t.Errorf("%s trace %d: result line has keys %v, want correct, attempted, failed, metrics", w.Name, trace, got)
			}
			var res result
			if err := json.Unmarshal([]byte(line), &res); err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %d: correct=%t attempted=%d failed=%d\n%s", w.Name, trace, res.Correct, res.Attempted, res.Failed, out.String())
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace %d: %d metrics, want %d", w.Name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace %d: metric %s missing or in unit %q, want %q", w.Name, trace, d.Name, m.Unit, d.Unit)
				}
				if trace == 0 && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, must never be 0", w.Name, d.Name, m.Value)
				}
				if !strings.Contains(out.String(), "\n"+d.Name+" ") {
					t.Errorf("%s trace %d: no `%s value unit` line", w.Name, trace, d.Name)
				}
			}
		}
		rep, err := readReport(o.out)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Env.NumCPU < 1 || rep.Env.Go == "" || rep.Env.Shapes.Name != "smoke" || rep.Env.Seed != 5 || len(rep.Results) != len(workloads) {
			t.Errorf("trace %d: environment stamp incomplete: %+v", trace, rep.Env)
		}
		if trace == 1 {
			if raw, err := os.ReadFile(o.spans); err != nil || !bytes.Contains(raw, []byte(`"name":"`+spanShard+`"`)) {
				t.Errorf("span file missing or without node-side spans: %v", err)
			}
		}
	}
}

// TestSameSeedSameAttacks: what must repeat exactly between two runs of one
// seed does, even though the timings differ.
func TestSameSeedSameAttacks(t *testing.T) {
	var prints [2][]string
	for i := range prints {
		res, err := runUntraced(workloadByName("attack_transfer"), smokeSizing, 9, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		prints[i] = res.Fingerprints
	}
	n := min(len(prints[0]), len(prints[1]))
	if n == 0 {
		t.Fatal("no attack finished")
	}
	for i := 0; i < n; i++ {
		if prints[0][i] != prints[1][i] {
			t.Errorf("attack %d: %s then %s", i, prints[0][i], prints[1][i])
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{0.5, 5}, {0.95, 10}, {0.9, 9}, {0.1, 1}, {1, 10}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %g", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %g, want 5", got)
	}
}

// TestCalmLatency: the best quartile of the groups' figures over the best
// quartile of the probe readings; calls beyond the last whole group are left out.
func TestCalmLatency(t *testing.T) {
	var lat []time.Duration
	for _, base := range []time.Duration{4, 2, 8, 6} { // four groups of 20 calls: base ms, one call of 10×
		for i := 0; i < 20; i++ {
			d := base * time.Millisecond
			if i == 7 {
				d *= 10
			}
			lat = append(lat, d)
		}
	}
	lat = append(lat, time.Second) // an incomplete fifth group
	p50, p95, groups := calmLatency(lat, 20, []float64{2, 1.5, 1, 0.5})
	// Quartile of {2, 4, 6, 8} is 2, of the readings 0.5; p95 of 20 is the 19th, still the base.
	if groups != 4 || p50 != 4 || p95 != 4 {
		t.Errorf("calmLatency = %g, %g over %d groups; want 4, 4 over 4", p50, p95, groups)
	}
	if p50, _, groups := calmLatency(lat[:10], 20, []float64{1}); groups != 0 || p50 != 0 {
		t.Errorf("fewer calls than one group: %g over %d groups, want nothing", p50, groups)
	}
}

func TestSupportedTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0.5}, {20, 0.5}, {40, 0.75}, {100, 0.9}, {200, 0.95}, {999, 0.95}, {1000, 0.99}} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestPoissonSchedule(t *testing.T) {
	const rate, dur = 500.0, 4 * time.Second
	a := poissonSchedule(rand.New(rand.NewSource(3)), rate, dur)
	b := poissonSchedule(rand.New(rand.NewSource(3)), rate, dur)
	if len(a) != len(b) {
		t.Fatalf("same seed, %d then %d arrivals", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, arrival %d at %v then %v", i, a[i], b[i])
		}
		if a[i] >= dur || (i > 0 && a[i] < a[i-1]) {
			t.Fatalf("arrival %d at %v: outside the window or out of order", i, a[i])
		}
	}
	// 2000 expected, σ ≈ 45.
	if n := len(a); n < 1800 || n > 2200 {
		t.Errorf("%d arrivals at %g/s over %v", n, rate, dur)
	}
}

// TestSelfTime pins the breakdown arithmetic on a hand-made trace: a request
// whose retrieve span holds a forward pass and three overlapping node calls.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: spanRequest, Start: 0, End: 100, Parent: noSpan, Request: 0},
		{Name: spanCluster, Start: 10, End: 90, Parent: 0, Request: 0},
		{Name: spanVictimFwd, Start: 10, End: 40, Parent: 1, Request: 0},
		{Name: spanTCP, Start: 45, End: 80, Parent: 1, Request: 0},
		{Name: spanTCP, Start: 50, End: 85, Parent: 1, Request: 0},
		{Name: spanTCP, Start: 46, End: 60, Parent: 1, Request: 0},
		{Name: spanShard, Start: 55, End: 75, Parent: 3, Request: 0},
		{Name: spanShard, Start: 70, End: 95, Parent: 4, Request: 0}, // runs past its parent: clipped
	}
	b := analyze(spans)
	want := map[string]layerTime{
		spanRequest:   {Calls: 1, Busy: 100, Self: 20},
		spanCluster:   {Calls: 1, Busy: 80, Self: 80 - 30 - 40}, // forward 30, node calls cover [45, 85]
		spanVictimFwd: {Calls: 1, Busy: 30, Self: 30},
		spanTCP:       {Calls: 3, Busy: 35 + 35 + 14, Self: 15 + 20 + 14},
		spanShard:     {Calls: 2, Busy: 45, Self: 45},
	}
	for name, w := range want {
		if got := b.Layers[name]; got != w {
			t.Errorf("%s: %+v, want %+v", name, got, w)
		}
	}
	if b.Root != 100 || b.RootSelf != 20 {
		t.Errorf("root %v, self %v; want 100, 20", b.Root, b.RootSelf)
	}
}

func TestCompare(t *testing.T) {
	mk := func(p50 float64, print string) *report {
		res := &result{Workload: "attack_query", Fingerprints: []string{print}}
		res.Correct, res.Attempted = true, 1
		res.set(map[string]float64{mSetupS: 1, mMsPerQuery: 3, mQueryP50: p50, mQueryP95: 4, mQueriesPerS: 300, mPeakRSS: 40})
		return &report{Results: []*result{res}}
	}
	var out bytes.Buffer
	if !compare(&out, mk(2, "a"), mk(2.2, "a")) {
		t.Errorf("10%% slower p50 is within the 20%% bound:\n%s", out.String())
	}
	if compare(&out, mk(2, "a"), mk(2.6, "a")) {
		t.Errorf("30%% slower p50 is beyond the 20%% bound:\n%s", out.String())
	}
	if compare(&out, mk(2, "a"), mk(2, "b")) {
		t.Errorf("same seed, another adversarial video must fail:\n%s", out.String())
	}
	slower := mk(2, "a")
	slower.Results[0].Metrics[mQueriesPerS] = metricValue{Value: 200, Unit: "1/s"}
	if compare(&out, mk(2, "a"), slower) {
		t.Errorf("a higher-is-better metric falling 33%% is beyond the 20%% bound:\n%s", out.String())
	}
}

// TestManifest keeps BENCHMARK.json at the repository root equal to the
// tables the program reports from, and inside the contract's limits.
func TestManifest(t *testing.T) {
	want, err := manifestJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json is stale: regenerate it with `go run ./bench -manifest > BENCHMARK.json`")
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer()...) {
		if seen[d.Name] || len(d.Name) > 64 || len(d.Unit) > 16 {
			t.Errorf("metric %q (unit %q): duplicate or too long", d.Name, d.Unit)
		}
		seen[d.Name] = true
		if d.Bound < 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %g outside [0, 0.25]", d.Name, d.Bound)
		}
	}
	if n := len(perLayer()); n > 128 {
		t.Errorf("%d per-layer metrics, at most 128", n)
	}
	for _, w := range workloads {
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
}
