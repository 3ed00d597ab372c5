package experiments

import (
	"fmt"

	"duo/internal/retrieval"
	"duo/internal/surrogate"
)

// Fig3VictimMAP reproduces Fig. 3: mAPs of every victim backbone × loss
// function on both datasets.
func Fig3VictimMAP(s *Scenario) (*Table, error) {
	t := &Table{
		ID:      "fig3",
		Title:   "mAPs on different (victim) video retrieval systems",
		Headers: append([]string{"Dataset", "Loss"}, s.Opts.victimArchs()...),
		Notes: []string{
			"paper shape: loss choice matters more on the smaller dataset; best combo is dataset-dependent",
		},
	}
	for _, ds := range s.Opts.datasets() {
		c, err := s.Corpus(ds)
		if err != nil {
			return nil, err
		}
		for _, loss := range VictimLossNames() {
			row := []string{ds, loss}
			for _, arch := range s.Opts.victimArchs() {
				eng, err := s.Victim(ds, arch, loss)
				if err != nil {
					return nil, err
				}
				row = append(row, fmtF(retrieval.EvaluateMAP(eng, c.Test, s.P.M)*100))
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t, nil
}

// Fig4SurrogateMAP reproduces Fig. 4: surrogate retrieval mAP as a function
// of (a) the stolen dataset size and (b) the output feature size.
func Fig4SurrogateMAP(s *Scenario) (*Table, error) {
	t := &Table{
		ID:      "fig4",
		Title:   "surrogate mAP vs # of stolen samples and output feature size",
		Headers: []string{"Dataset", "Sweep", "Value", "mAP", "VictimAgreement"},
		Notes: []string{
			"paper shape: mAP grows with the stolen dataset size; the feature size has little impact",
		},
	}
	const victimArch = "SlowFast"
	sizes := stealSizes(s.P.StealCap)
	feats := featSizes(s.P.FeatDim)
	for _, ds := range s.Opts.datasets() {
		c, err := s.Corpus(ds)
		if err != nil {
			return nil, err
		}
		victim, err := s.Victim(ds, victimArch, DefaultVictimLoss)
		if err != nil {
			return nil, err
		}
		for _, sz := range sizes {
			m, err := s.Surrogate(ds, victimArch, DefaultVictimLoss, "C3D", sz, s.P.FeatDim)
			if err != nil {
				return nil, err
			}
			eng := retrieval.NewEngine(m, c.Train)
			t.Rows = append(t.Rows, []string{
				ds, "samples", fmt.Sprint(sz),
				fmtF(retrieval.EvaluateMAP(eng, c.Test, s.P.M) * 100),
				fmtF(surrogate.Agreement(victim, m, c.Train, c.Test, s.P.M) * 100),
			})
		}
		for _, fd := range feats {
			m, err := s.Surrogate(ds, victimArch, DefaultVictimLoss, "C3D", s.P.StealCap, fd)
			if err != nil {
				return nil, err
			}
			eng := retrieval.NewEngine(m, c.Train)
			t.Rows = append(t.Rows, []string{
				ds, "featdim", fmt.Sprint(fd),
				fmtF(retrieval.EvaluateMAP(eng, c.Test, s.P.M) * 100),
				fmtF(surrogate.Agreement(victim, m, c.Train, c.Test, s.P.M) * 100),
			})
		}
	}
	return t, nil
}

// stealSizes scales the paper's surrogate dataset sizes
// [165, 1111, 3616, 8421] to the scenario's cap.
func stealSizes(total int) []int {
	sizes := []int{total / 8, total / 4, total / 2, total}
	for i := range sizes {
		if sizes[i] < 2 {
			sizes[i] = 2 + i
		}
	}
	return sizes
}

// featSizes scales the paper's output feature sizes [256, 512, 768, 1024].
func featSizes(base int) []int {
	return []int{base / 2, base, base * 3 / 2, base * 2}
}

// Fig5QueryCurves reproduces Fig. 5: the objective 𝕋 as a function of the
// number of queries, for the query-based attacks.
func Fig5QueryCurves(s *Scenario) (*Table, error) {
	const victimArch = "TPN"
	ds := s.Opts.datasets()[0]
	pairs, err := s.Pairs(ds)
	if err != nil {
		return nil, err
	}
	b := s.DefaultBudget()
	// Fig. 5 traces a single SparseQuery stage, so the pipeline is not
	// looped here (looping restarts 𝕋 from the new base video).
	b.IterNumH = 1
	attacks := []string{"Vanilla", "HEU-Nes", "DUO-C3D", "DUO-Res18"}

	t := &Table{
		ID:      "fig5",
		Title:   fmt.Sprintf("objective 𝕋 vs # of queries (%s, victim %s)", ds, victimArch),
		Headers: append([]string{"Queries"}, attacks...),
		Notes: []string{
			"paper shape: 𝕋 decreases with queries for every attack; DUO reaches lower 𝕋 than Vanilla",
		},
	}

	curves := make([][]float64, len(attacks))
	for ai, name := range attacks {
		cs, err := s.runAttackCell(name, ds, victimArch, pairs, b)
		if err != nil {
			return nil, err
		}
		curves[ai] = meanTrajectory(cs.Trajectories)
	}
	// Sample each curve at 5 checkpoints of the query budget.
	maxLen := 0
	for _, c := range curves {
		if len(c) > maxLen {
			maxLen = len(c)
		}
	}
	if maxLen == 0 {
		return nil, fmt.Errorf("experiments: fig5: no trajectories recorded")
	}
	for _, frac := range []float64{0, 0.25, 0.5, 0.75, 1.0} {
		idx := int(frac * float64(maxLen-1))
		row := []string{fmt.Sprint(idx)}
		for _, c := range curves {
			j := idx
			if j >= len(c) {
				j = len(c) - 1
			}
			if j < 0 {
				row = append(row, "-")
				continue
			}
			row = append(row, fmt.Sprintf("%.4f", c[j]))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// meanTrajectory averages trajectories of unequal length (shorter series
// hold their last value, mirroring a converged attack).
func meanTrajectory(ts [][]float64) []float64 {
	maxLen := 0
	for _, t := range ts {
		if len(t) > maxLen {
			maxLen = len(t)
		}
	}
	if maxLen == 0 {
		return nil
	}
	out := make([]float64, maxLen)
	for i := range out {
		sum, n := 0.0, 0
		for _, t := range ts {
			if len(t) == 0 {
				continue
			}
			j := i
			if j >= len(t) {
				j = len(t) - 1
			}
			sum += t[j]
			n++
		}
		if n > 0 {
			out[i] = sum / float64(n)
		}
	}
	return out
}
