// Package experiments reproduces every table and figure of the paper's
// evaluation (§V) on the scaled-down substrate: each experiment returns a
// Table whose rows mirror the paper's layout so shapes can be compared
// side-by-side (see EXPERIMENTS.md).
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"duo/internal/telemetry"
)

// Scale selects the experiment size preset (DESIGN.md §5).
type Scale int

const (
	// Tiny is the unit/integration-test preset.
	Tiny Scale = iota + 1
	// Small is the bench/example preset.
	Small
)

// Params are the concrete sizes a Scale expands to.
type Params struct {
	Categories  int
	TrainPerCat int
	TestPerCat  int
	Frames      int
	Height      int
	Width       int
	FeatDim     int
	M           int // retrieval list length
	Pairs       int // attack (v, v_t) pairs per cell
	VictimEpoch int
	Queries     int // query budget per attack
	StealCap    int // surrogate dataset size
}

// ParamsFor expands a scale preset.
func ParamsFor(s Scale) Params {
	switch s {
	case Small:
		return Params{
			Categories: 6, TrainPerCat: 8, TestPerCat: 4,
			Frames: 16, Height: 16, Width: 16,
			FeatDim: 32, M: 10, Pairs: 5,
			VictimEpoch: 5, Queries: 600, StealCap: 48,
		}
	default: // Tiny
		return Params{
			Categories: 4, TrainPerCat: 6, TestPerCat: 3,
			Frames: 8, Height: 12, Width: 12,
			FeatDim: 16, M: 8, Pairs: 3,
			VictimEpoch: 3, Queries: 300, StealCap: 24,
		}
	}
}

// Options configure an experiment run.
type Options struct {
	// Scale picks the size preset.
	Scale Scale
	// Seed drives every random choice (fully deterministic runs).
	Seed int64
	// Datasets restricts the corpora swept (nil = both paper datasets).
	Datasets []string
	// VictimArchs restricts the victim backbones swept (nil = all four).
	VictimArchs []string
	// Telemetry optionally aggregates instrumentation across every victim
	// engine and attack run of the experiment (write-only; results are
	// identical with or without it). Nil — the default — disables it.
	Telemetry *telemetry.Registry
}

// DefaultOptions returns Tiny-scale, seed-1 options.
func DefaultOptions() Options { return Options{Scale: Tiny, Seed: 1} }

func (o Options) datasets() []string {
	if len(o.Datasets) > 0 {
		return o.Datasets
	}
	return DatasetNames()
}

func (o Options) victimArchs() []string {
	if len(o.VictimArchs) > 0 {
		return o.VictimArchs
	}
	return []string{"TPN", "SlowFast", "I3D", "Resnet34"}
}

// Table is a rendered experiment result.
type Table struct {
	// ID is the experiment identifier ("table2", "fig5", ...).
	ID string
	// Title describes the paper artifact being reproduced.
	Title string
	// Headers name the columns.
	Headers []string
	// Rows hold the formatted cells.
	Rows [][]string
	// Notes records shape expectations or caveats.
	Notes []string
}

// String renders the table as aligned text.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Markdown renders the table as a GitHub-flavoured markdown table.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s: %s\n\n", t.ID, t.Title)
	b.WriteString("| " + strings.Join(t.Headers, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat("---|", len(t.Headers)) + "\n")
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\n*%s*\n", n)
	}
	return b.String()
}

// Runner executes one experiment.
type Runner func(Options) (*Table, error)

// registry maps experiment ids to runners.
var registry = map[string]Runner{
	"fig3":          Fig3VictimMAP,
	"fig4":          Fig4SurrogateMAP,
	"fig5":          Fig5QueryCurves,
	"table2":        Table2AttackComparison,
	"table3":        Table3SurrogateSize,
	"table4":        Table4VictimLoss,
	"table5":        Table5KSweep,
	"table6":        Table6NSweep,
	"table7":        Table7TauSweep,
	"table8":        Table8IterNumH,
	"table9":        Table9Transfer,
	"table10":       Table10Defenses,
	"ablation-dct":  AblationDCT,
	"ensemble":      EnsembleDefense,
	"stealth":       StealthComparison,
	"ablation-ndcg": AblationNDCG,
	"ablation-mask": AblationMask,
}

// IDs returns every registered experiment id, sorted.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Run executes an experiment by id.
func Run(id string, o Options) (*Table, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown id %q (have %v)", id, IDs())
	}
	return r(o)
}
