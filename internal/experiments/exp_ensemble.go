package experiments

import (
	"fmt"
	"math/rand"

	"duo/internal/attack"
	"duo/internal/defense"
	"duo/internal/retrieval"
)

// EnsembleDefense evaluates the paper's §V-D proposal ("ensemble models
// built from multiple backbones would be more robust against most AE
// attacks"): DUO-C3D, with its surrogate stolen from the single I3D
// service, is launched against (a) that single-backbone victim and (b) a
// Borda-fused ensemble of three backbones over the same gallery.
func EnsembleDefense(s *Scenario) (*Table, error) {
	ds := s.Opts.datasets()[0]
	pairs, err := s.Pairs(ds)
	if err != nil {
		return nil, err
	}
	b := s.DefaultBudget()

	single, err := s.Victim(ds, "I3D", DefaultVictimLoss)
	if err != nil {
		return nil, err
	}
	members := []retrieval.Retriever{single}
	for _, arch := range []string{"SlowFast", "TPN"} {
		eng, err := s.Victim(ds, arch, DefaultVictimLoss)
		if err != nil {
			return nil, err
		}
		members = append(members, eng)
	}
	ensemble := defense.NewEnsemble(members...)

	surr, err := s.Surrogate(ds, "I3D", DefaultVictimLoss, "C3D", s.P.StealCap, s.P.FeatDim)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:      "ensemble",
		Title:   "§V-D proposed defense: single-backbone victim vs 3-backbone ensemble",
		Headers: []string{"Victim", "AP@m w/o", "AP@m DUO-C3D", "Gain"},
		Notes: []string{
			"paper conjecture: the ensemble's AP@m gain under attack is smaller than the single backbone's",
		},
	}

	for _, row := range []struct {
		name   string
		victim retrieval.Retriever
	}{
		{"I3D (single)", single},
		{"I3D+SlowFast+TPN (ensemble)", ensemble},
	} {
		woSum, advSum := 0.0, 0.0
		for pi, pair := range pairs {
			rng := rand.New(rand.NewSource(s.Opts.Seed + int64(pi)*997))
			ctx := &attack.Context{Victim: row.victim, M: s.P.M, Rng: rng}
			out, err := s.runDUO(ctx, surr, pair, b)
			if err != nil {
				return nil, fmt.Errorf("ensemble/%s: %w", row.name, err)
			}
			wo := attack.NewOutcome(pair.Original, pair.Original.Clone(), 0, nil)
			woSum += wo.APAtM(row.victim, pair.Target, s.P.M) * 100
			advSum += out.APAtM(row.victim, pair.Target, s.P.M) * 100
		}
		n := float64(len(pairs))
		t.Rows = append(t.Rows, []string{
			row.name, fmtF(woSum / n), fmtF(advSum / n), fmtF((advSum - woSum) / n),
		})
	}
	return t, nil
}
