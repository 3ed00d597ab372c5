package experiments

import "fmt"

// ablationVictim fixes the backbone the ablations attack.
const ablationVictim = "I3D"

// runAblation renders a two-row comparison of a DUO design choice.
func runAblation(s *Scenario, id, title string, variants []string, mutate func(*Budget, int)) (*Table, error) {
	ds := s.Opts.datasets()[0]
	pairs, err := s.Pairs(ds)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      id,
		Title:   title,
		Headers: []string{"Variant", "AP@m", "Spa", "PScore", "Queries"},
	}
	for vi, name := range variants {
		b := s.DefaultBudget()
		mutate(&b, vi)
		cs, err := s.runAttackCell("DUO-C3D", ds, ablationVictim, pairs, b)
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", id, name, err)
		}
		t.Rows = append(t.Rows, []string{name, fmtF(cs.APm), fmtI(cs.Spa), fmtF(cs.PScore), fmtI(cs.Queries)})
	}
	return t, nil
}

// AblationNDCG compares the NDCG-weighted ℍ against plain set overlap in
// the SparseQuery objective (DESIGN.md §6).
func AblationNDCG(s *Scenario) (*Table, error) {
	return runAblation(s, "ablation-ndcg",
		"𝕋 similarity: NDCG-weighted ℍ vs plain overlap",
		[]string{"NDCG", "plain-overlap"},
		func(b *Budget, vi int) { b.UseNDCG = vi == 0 })
}

// AblationDCT compares the paper's Cartesian SparseQuery basis against the
// low-frequency DCT basis of SimBA-DCT (an extension beyond the paper).
func AblationDCT(s *Scenario) (*Table, error) {
	t, err := runAblation(s, "ablation-dct",
		"SparseQuery basis: Cartesian (paper) vs low-frequency DCT",
		[]string{"Cartesian", "DCT"},
		func(b *Budget, vi int) { b.UseDCT = vi == 1 })
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		"DCT steps move whole masked frequency patterns per query: fewer, smoother directions at the same budget")
	return t, nil
}

// AblationMask compares DUO's masked SimBA query stage against an unmasked
// (dense) SimBA with the same query budget: the masked variant keeps Spa
// low at comparable AP@m (DESIGN.md §6).
func AblationMask(s *Scenario) (*Table, error) {
	ds := s.Opts.datasets()[0]
	pairs, err := s.Pairs(ds)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "ablation-mask",
		Title:   "SparseQuery support: masked (DUO) vs unmasked (dense SimBA)",
		Headers: []string{"Variant", "AP@m", "Spa", "PScore", "Queries"},
		Notes: []string{
			"the dense variant is Vanilla with the full video as support: similar query budget, far higher Spa potential",
		},
	}
	b := s.DefaultBudget()
	masked, err := s.runAttackCell("DUO-C3D", ds, ablationVictim, pairs, b)
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{"masked (DUO)", fmtF(masked.APm), fmtI(masked.Spa), fmtF(masked.PScore), fmtI(masked.Queries)})

	dense := b
	dense.K = s.P.Frames * 3 * s.P.Height * s.P.Width // whole video
	dense.N = s.P.Frames
	denseCS, err := s.runAttackCell("Vanilla", ds, ablationVictim, pairs, dense)
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{"unmasked (dense SimBA)", fmtF(denseCS.APm), fmtI(denseCS.Spa), fmtF(denseCS.PScore), fmtI(denseCS.Queries)})
	return t, nil
}
