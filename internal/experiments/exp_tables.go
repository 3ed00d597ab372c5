package experiments

import (
	"fmt"
)

// Table2AttackComparison reproduces Table II: AP@m / Spa / PScore for every
// attack on every victim backbone and both datasets.
func Table2AttackComparison(s *Scenario) (*Table, error) {
	t := &Table{
		ID:      "table2",
		Title:   "attack performance of different AE attacks",
		Headers: []string{"Dataset", "Victim", "Attack", "AP@m", "Spa", "PScore"},
		Notes: []string{
			"paper shape: every attack's AP@m ≥ w/o attack; DUO leads the sparse attacks; TIMI's Spa is orders of magnitude above the sparse attacks'",
			"known deviation: at this scale TIMI's AP@m can exceed DUO's because the tiny stolen surrogate approximates the tiny victim far better than at paper scale, making dense transfer unusually strong (see EXPERIMENTS.md)",
		},
	}
	b := s.DefaultBudget()
	for _, ds := range s.Opts.datasets() {
		pairs, err := s.Pairs(ds)
		if err != nil {
			return nil, err
		}
		for _, arch := range s.Opts.victimArchs() {
			for _, name := range AttackNames() {
				cs, err := s.runAttackCell(name, ds, arch, pairs, b)
				if err != nil {
					return nil, fmt.Errorf("%s/%s/%s: %w", ds, arch, name, err)
				}
				spa, pscore := fmtI(cs.Spa), fmtF(cs.PScore)
				if name == "w/o attack" {
					spa, pscore = "-", "-"
				}
				t.Rows = append(t.Rows, []string{ds, arch, name, fmtF(cs.APm), spa, pscore})
			}
		}
	}
	return t, nil
}

// sweepVictim is the backbone the parameter-sweep tables fix (the paper's
// sweep tables reuse the I3D victim).
const sweepVictim = "I3D"

// duoVariants are the two DUO rows of every sweep table.
var duoVariants = []string{"DUO-C3D", "DUO-Res18"}

// runSweep renders a sweep table: for each dataset × DUO variant × swept
// value it reports AP@m / Spa / PScore.
func runSweep(s *Scenario, id, title, param string, values []string, mutate func(*Budget, int)) (*Table, error) {
	t := &Table{
		ID:      id,
		Title:   title,
		Headers: []string{"Dataset", "Attack", param, "AP@m", "Spa", "PScore"},
	}
	for _, ds := range s.Opts.datasets() {
		pairs, err := s.Pairs(ds)
		if err != nil {
			return nil, err
		}
		for _, name := range duoVariants {
			for vi, val := range values {
				b := s.DefaultBudget()
				mutate(&b, vi)
				cs, err := s.runAttackCell(name, ds, sweepVictim, pairs, b)
				if err != nil {
					return nil, fmt.Errorf("%s/%s/%s=%s: %w", ds, name, param, val, err)
				}
				t.Rows = append(t.Rows, []string{ds, name, val, fmtF(cs.APm), fmtI(cs.Spa), fmtF(cs.PScore)})
			}
		}
	}
	return t, nil
}

// Table3SurrogateSize reproduces Table III: DUO with different surrogate
// dataset sizes.
func Table3SurrogateSize(s *Scenario) (*Table, error) {
	sizes := stealSizes(s.P.StealCap)
	t := &Table{
		ID:      "table3",
		Title:   "DUO with different sizes of the surrogate dataset",
		Headers: []string{"Dataset", "Attack", "Samples", "AP@m", "Spa", "PScore"},
		Notes: []string{
			"paper shape: the surrogate dataset size barely moves AP@m — a handful of samples suffices",
		},
	}
	b := s.DefaultBudget()
	for _, ds := range s.Opts.datasets() {
		pairs, err := s.Pairs(ds)
		if err != nil {
			return nil, err
		}
		for _, name := range duoVariants {
			arch := surrogateArch(name)
			for _, sz := range sizes {
				// Build (and cache) the surrogate at this cap, then run DUO
				// with it.
				surr, err := s.Surrogate(ds, sweepVictim, DefaultVictimLoss, arch, sz, s.P.FeatDim)
				if err != nil {
					return nil, err
				}
				victim, err := s.Victim(ds, sweepVictim, DefaultVictimLoss)
				if err != nil {
					return nil, err
				}
				cs, err := s.runDUOCell(victim, surr, pairs, b)
				if err != nil {
					return nil, err
				}
				t.Rows = append(t.Rows, []string{ds, name, fmt.Sprint(sz), fmtF(cs.APm), fmtI(cs.Spa), fmtF(cs.PScore)})
			}
		}
	}
	return t, nil
}

// Table4VictimLoss reproduces Table IV: DUO against victims trained with
// different loss functions.
func Table4VictimLoss(s *Scenario) (*Table, error) {
	t := &Table{
		ID:      "table4",
		Title:   "DUO vs victim models trained with different loss functions",
		Headers: []string{"Dataset", "Attack", "VictimLoss", "AP@m", "Spa", "PScore"},
		Notes: []string{
			"paper shape: ArcFaceLoss victims are the most robust (lowest AP@m)",
		},
	}
	b := s.DefaultBudget()
	for _, ds := range s.Opts.datasets() {
		pairs, err := s.Pairs(ds)
		if err != nil {
			return nil, err
		}
		for _, name := range duoVariants {
			arch := surrogateArch(name)
			for _, lossName := range VictimLossNames() {
				victim, err := s.Victim(ds, sweepVictim, lossName)
				if err != nil {
					return nil, err
				}
				surr, err := s.Surrogate(ds, sweepVictim, lossName, arch, s.P.StealCap, s.P.FeatDim)
				if err != nil {
					return nil, err
				}
				cs, err := s.runDUOCell(victim, surr, pairs, b)
				if err != nil {
					return nil, err
				}
				t.Rows = append(t.Rows, []string{ds, name, lossName, fmtF(cs.APm), fmtI(cs.Spa), fmtF(cs.PScore)})
			}
		}
	}
	return t, nil
}

// Table5KSweep reproduces Table V: the pixel budget k sweep. The paper
// sweeps 20K–50K of 602,112 elements (0.5×–1.25× its default k); we sweep
// the same multiples of the scaled default.
func Table5KSweep(s *Scenario) (*Table, error) {
	base := s.DefaultBudget().K
	ks := []int{base / 2, base * 3 / 4, base, base * 5 / 4}
	elems := s.P.Frames * 3 * s.P.Height * s.P.Width
	labels := make([]string, len(ks))
	for i := range ks {
		if ks[i] < 1 {
			ks[i] = i + 1
		}
		if ks[i] > elems {
			ks[i] = elems
		}
		labels[i] = fmt.Sprint(ks[i])
	}
	t, err := runSweep(s, "table5", "DUO with n fixed and k swept (paper: 20K–50K)", "k",
		labels, func(b *Budget, vi int) { b.K = ks[vi] })
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes, "paper shape: AP@m rises with k then saturates; Spa rises with k")
	return t, nil
}

// Table6NSweep reproduces Table VI: the frame budget n sweep (2–5).
func Table6NSweep(s *Scenario) (*Table, error) {
	// The paper sweeps n = 2..5 of 16 frames (0.5×–1.25× its default n);
	// sweep the same multiples of the scaled default.
	base := s.DefaultBudget().N
	var ns []int
	for _, factor := range []float64{0.5, 0.75, 1.0, 1.25} {
		n := int(float64(base) * factor)
		if n < 1 {
			n = 1
		}
		if n > s.P.Frames {
			n = s.P.Frames
		}
		ns = append(ns, n)
	}
	labels := make([]string, len(ns))
	for i, n := range ns {
		labels[i] = fmt.Sprint(n)
	}
	t, err := runSweep(s, "table6", "DUO with k fixed and n swept (paper: 2–5)", "n",
		labels, func(b *Budget, vi int) { b.N = ns[vi] })
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes, "paper shape: AP@m rises with n then flattens; Spa rises with n")
	return t, nil
}

// Table7TauSweep reproduces Table VII: the magnitude budget τ sweep.
func Table7TauSweep(s *Scenario) (*Table, error) {
	taus := []float64{20, 30, 40, 50}
	labels := make([]string, len(taus))
	for i, tau := range taus {
		labels[i] = fmt.Sprint(tau)
	}
	t, err := runSweep(s, "table7", "DUO with different perturbation budgets τ", "tau",
		labels, func(b *Budget, vi int) { b.Tau = taus[vi] })
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes, "paper shape: AP@m and PScore rise with τ; Spa barely moves")
	return t, nil
}

// Table8IterNumH reproduces Table VIII: the pipeline-loop count sweep.
func Table8IterNumH(s *Scenario) (*Table, error) {
	iters := []int{1, 2, 3, 4}
	labels := []string{"1", "2", "3", "4"}
	t, err := runSweep(s, "table8", "DUO with different iter_numH", "iter_numH",
		labels, func(b *Budget, vi int) { b.IterNumH = iters[vi] })
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes, "paper shape: AP@m, Spa, and PScore all rise with iter_numH")
	return t, nil
}
