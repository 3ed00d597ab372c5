package experiments

import (
	"sort"
	"strconv"
	"strings"
	"testing"
)

// fastOpts restricts experiments to one dataset and one victim so tests
// stay quick while exercising the full pipeline.
func fastOpts() Options {
	o := DefaultOptions()
	o.Datasets = []string{UCF101Sim}
	o.VictimArchs = []string{"I3D"}
	return o
}

func parseCell(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q not numeric: %v", s, err)
	}
	return v
}

func TestRunUnknownID(t *testing.T) {
	if _, err := Run("table99", NewScenario(DefaultOptions())); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestIDsCoverEveryPaperArtifact(t *testing.T) {
	want := []string{
		"fig3", "fig4", "fig5",
		"table2", "table3", "table4", "table5", "table6", "table7",
		"table8", "table9", "table10",
		"ablation-dct", "ablation-mask", "ablation-ndcg",
		"ensemble", "stealth",
	}
	got := IDs()
	if len(got) != len(want) || !sort.StringsAreSorted(got) {
		t.Fatalf("IDs() = %v, want the %d ids sorted", got, len(want))
	}
	have := map[string]bool{}
	for _, id := range got {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("missing experiment %s", id)
		}
	}
}

func TestParamsForScales(t *testing.T) {
	tiny, small := ParamsFor(Tiny), ParamsFor(Small)
	if small.Frames <= tiny.Frames || small.Categories <= tiny.Categories {
		t.Error("Small preset not larger than Tiny")
	}
	if tiny.Queries <= 0 || tiny.Pairs <= 0 {
		t.Error("Tiny preset has empty budgets")
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{
		ID: "x", Title: "demo",
		Headers: []string{"A", "B"},
		Rows:    [][]string{{"1", "2"}},
		Notes:   []string{"a note"},
	}
	s := tab.String()
	if !strings.Contains(s, "demo") || !strings.Contains(s, "a note") {
		t.Errorf("String() = %q", s)
	}
	md := tab.Markdown()
	if !strings.Contains(md, "| A | B |") || !strings.Contains(md, "| 1 | 2 |") {
		t.Errorf("Markdown() = %q", md)
	}
}

func TestScenarioCachesVictims(t *testing.T) {
	s := NewScenario(fastOpts())
	a, err := s.Victim(UCF101Sim, "I3D", DefaultVictimLoss)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Victim(UCF101Sim, "I3D", DefaultVictimLoss)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("victim not cached")
	}
}

// TestSharedScenarioMatchesFresh runs experiments that share the I3D victim
// and its C3D surrogate over one Scenario, as cmd/duobench does, and checks
// every cell against the same experiment on a Scenario of its own: an
// artifact built by an earlier experiment must be the one a fresh Scenario
// would build.
func TestSharedScenarioMatchesFresh(t *testing.T) {
	ids := []string{"table9", "stealth", "ensemble"}
	shared := NewScenario(fastOpts())
	for _, id := range ids {
		got, err := Run(id, shared)
		if err != nil {
			t.Fatalf("%s on the shared scenario: %v", id, err)
		}
		want, err := Run(id, NewScenario(fastOpts()))
		if err != nil {
			t.Fatalf("%s on a fresh scenario: %v", id, err)
		}
		if len(got.Rows) == 0 || len(got.Rows) != len(want.Rows) {
			t.Fatalf("%s: %d rows shared, %d fresh", id, len(got.Rows), len(want.Rows))
		}
		for r := range want.Rows {
			if strings.Join(got.Rows[r], "|") != strings.Join(want.Rows[r], "|") {
				t.Errorf("%s row %d: shared %q, fresh %q", id, r, got.Rows[r], want.Rows[r])
			}
		}
	}
	// The later experiments reused what table9 built instead of rebuilding it.
	if n := len(shared.victims); n != 3 {
		t.Errorf("shared scenario holds %d victims, want 3 (I3D, SlowFast, TPN)", n)
	}
	if n := len(shared.surrogates); n != 2 {
		t.Errorf("shared scenario holds %d surrogates, want 2 (C3D, Resnet18)", n)
	}
}

func TestScenarioUnknownDataset(t *testing.T) {
	s := NewScenario(fastOpts())
	if _, err := s.Corpus("Kinetics"); err == nil {
		t.Error("unknown dataset accepted")
	}
}

func TestFig3Shape(t *testing.T) {
	tab, err := Fig3VictimMAP(NewScenario(fastOpts()))
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 { // 1 dataset × 3 losses
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		v := parseCell(t, row[2])
		if v < 0 || v > 100 {
			t.Errorf("mAP %g out of range", v)
		}
		// Trained retrieval must beat chance (25% with 4 categories).
		if v < 25 {
			t.Errorf("mAP %g below chance", v)
		}
	}
}

func TestTable2HeadlineShape(t *testing.T) {
	tab, err := Table2AttackComparison(NewScenario(fastOpts()))
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(AttackNames()) {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	cells := map[string][]string{}
	for _, row := range tab.Rows {
		cells[row[2]] = row
	}
	woAP := parseCell(t, cells["w/o attack"][3])
	duoAP := parseCell(t, cells["DUO-C3D"][3])
	duoSpa := parseCell(t, cells["DUO-C3D"][4])
	timiAP := parseCell(t, cells["TIMI-C3D"][3])
	timiSpa := parseCell(t, cells["TIMI-C3D"][4])

	if duoAP < woAP {
		t.Errorf("DUO AP@m %g below w/o attack %g", duoAP, woAP)
	}
	vanAP := parseCell(t, cells["Vanilla"][3])
	heuAP := parseCell(t, cells["HEU-Nes"][3])
	if duoAP <= vanAP {
		t.Errorf("paper shape violated: DUO AP@m %g ≤ Vanilla %g", duoAP, vanAP)
	}
	if duoAP <= heuAP {
		t.Errorf("paper shape violated: DUO AP@m %g ≤ HEU-Nes %g", duoAP, heuAP)
	}
	// The stealth headline: TIMI's dense perturbation is orders of
	// magnitude larger, while DUO stays within striking distance of (or
	// above) TIMI's AP@m.
	if timiSpa < 4*duoSpa {
		t.Errorf("paper shape violated: TIMI Spa %g not ≫ DUO Spa %g", timiSpa, duoSpa)
	}
	if duoAP < 0.6*timiAP {
		t.Errorf("DUO AP@m %g fell far below TIMI %g", duoAP, timiAP)
	}
	// Every attack's AP@m must not regress below the no-attack baseline.
	for _, name := range AttackNames() {
		if ap := parseCell(t, cells[name][3]); ap < woAP-1e-9 {
			t.Errorf("%s: AP@m %g regressed below w/o %g", name, ap, woAP)
		}
	}
}

func TestTable5KSweepShape(t *testing.T) {
	tab, err := Table5KSweep(NewScenario(fastOpts()))
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 8 { // 1 ds × 2 DUO variants × 4 k values
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// For DUO-C3D, AP@m at the largest k must not be materially below the
	// smallest k (the paper's rise-then-saturate shape).
	var lo, hi float64
	for _, row := range tab.Rows {
		if row[1] != "DUO-C3D" {
			continue
		}
		v := parseCell(t, row[3])
		if lo == 0 {
			lo = v
		}
		hi = v
	}
	if hi+5 < lo {
		t.Errorf("AP@m fell sharply with k: %g → %g", lo, hi)
	}
}

func TestFig5TrajectoriesDecrease(t *testing.T) {
	tab, err := Fig5QueryCurves(NewScenario(fastOpts()))
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Every attack column must be non-increasing from first to last row.
	for col := 1; col < len(tab.Headers); col++ {
		first := parseCell(t, tab.Rows[0][col])
		last := parseCell(t, tab.Rows[len(tab.Rows)-1][col])
		if last > first+1e-9 {
			t.Errorf("%s: 𝕋 increased %g → %g", tab.Headers[col], first, last)
		}
	}
}

func TestTable10RatesInRange(t *testing.T) {
	tab, err := Table10Defenses(NewScenario(fastOpts()))
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 7 { // 1 ds × 7 attacks
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		for _, col := range []int{2, 3} {
			v := parseCell(t, row[col])
			if v < 0 || v > 100 {
				t.Errorf("detection rate %g out of range", v)
			}
		}
	}
}

func TestSmallScalePresetWorks(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// One cheap experiment at Small scale proves the bench preset is
	// sound end to end (geometry, budgets, training settings).
	o := Options{Scale: Small, Seed: 1,
		Datasets: []string{UCF101Sim}, VictimArchs: []string{"C3D"}}
	tab, err := Fig3VictimMAP(NewScenario(o))
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if v := parseCell(t, row[2]); v < 100.0/6 {
			t.Errorf("Small-scale mAP %g below chance", v)
		}
	}
}
