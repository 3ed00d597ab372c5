package experiments

import (
	"fmt"

	"duo/internal/core"
	"duo/internal/defense"
	"duo/internal/video"
)

// Table9Transfer reproduces Table IX: the transferability of
// SparseTransfer-only adversarial examples under ℓ2 and ℓ∞ constraints,
// compared with TIMI, across victim backbones (UCF101 in the paper).
func Table9Transfer(s *Scenario) (*Table, error) {
	ds := s.Opts.datasets()[0]
	pairs, err := s.Pairs(ds)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "table9",
		Title:   fmt.Sprintf("transferability of SparseTransfer AEs (%s)", ds),
		Headers: []string{"Victim", "Attack", "AP@m", "Spa", "PScore"},
		Notes: []string{
			"paper shape: SparseTransfer matches or beats TIMI's AP@m at ~100-200× lower Spa",
		},
	}
	type variant struct {
		name string
		run  func(arch string) (*CellStats, error)
	}
	variants := []variant{
		{"TIMI-C3D (n=all)", func(arch string) (*CellStats, error) {
			return s.runAttackCell("TIMI-C3D", ds, arch, pairs, s.DefaultBudget())
		}},
		{"TIMI-Res18 (n=all)", func(arch string) (*CellStats, error) {
			return s.runAttackCell("TIMI-Res18", ds, arch, pairs, s.DefaultBudget())
		}},
		{"DUO-C3D (l2)", func(arch string) (*CellStats, error) {
			b := s.DefaultBudget()
			b.TransferOnly = true
			b.Norm = core.NormL2
			return s.runAttackCell("DUO-C3D", ds, arch, pairs, b)
		}},
		{"DUO-Res18 (l2)", func(arch string) (*CellStats, error) {
			b := s.DefaultBudget()
			b.TransferOnly = true
			b.Norm = core.NormL2
			return s.runAttackCell("DUO-Res18", ds, arch, pairs, b)
		}},
		{"DUO-C3D (linf)", func(arch string) (*CellStats, error) {
			b := s.DefaultBudget()
			b.TransferOnly = true
			return s.runAttackCell("DUO-C3D", ds, arch, pairs, b)
		}},
		{"DUO-Res18 (linf)", func(arch string) (*CellStats, error) {
			b := s.DefaultBudget()
			b.TransferOnly = true
			return s.runAttackCell("DUO-Res18", ds, arch, pairs, b)
		}},
	}
	for _, arch := range s.Opts.victimArchs() {
		for _, v := range variants {
			cs, err := v.run(arch)
			if err != nil {
				return nil, fmt.Errorf("table9 %s/%s: %w", arch, v.name, err)
			}
			t.Rows = append(t.Rows, []string{arch, v.name, fmtF(cs.APm), fmtI(cs.Spa), fmtF(cs.PScore)})
		}
	}
	return t, nil
}

// Table10Defenses reproduces Table X: the detection rate of feature
// squeezing and Noise2Self against each attack's adversarial examples
// (victim: I3D, as in the paper).
func Table10Defenses(s *Scenario) (*Table, error) {
	const victimArch = "I3D"
	t := &Table{
		ID:      "table10",
		Title:   "attack detection rate (%) of two defenses",
		Headers: []string{"Dataset", "Attack", "feature squeezing", "Noise2Self"},
		Notes: []string{
			"paper shape: sparse attacks (DUO, HEU) evade feature squeezing far better than Vanilla; thresholds calibrated at 5% clean FPR",
		},
	}
	b := s.DefaultBudget()
	attacks := []string{"Vanilla", "TIMI-C3D", "TIMI-Res18", "HEU-Nes", "HEU-Sim", "DUO-C3D", "DUO-Res18"}
	for _, ds := range s.Opts.datasets() {
		c, err := s.Corpus(ds)
		if err != nil {
			return nil, err
		}
		victim, err := s.Victim(ds, victimArch, DefaultVictimLoss)
		if err != nil {
			return nil, err
		}
		pairs, err := s.Pairs(ds)
		if err != nil {
			return nil, err
		}

		fs := &defense.FeatureSqueezer{Model: victim.Model(), Bits: 4, MedianK: 1}
		n2s := &defense.Noise2Self{Model: victim.Model()}
		fsThr, err := defense.CalibrateThreshold(fs, c.Train, 0.05)
		if err != nil {
			return nil, err
		}
		n2sThr, err := defense.CalibrateThreshold(n2s, c.Train, 0.05)
		if err != nil {
			return nil, err
		}

		for _, name := range attacks {
			cs, err := s.runAttackCell(name, ds, victimArch, pairs, b)
			if err != nil {
				return nil, fmt.Errorf("table10 %s/%s: %w", ds, name, err)
			}
			advs := make([]*video.Video, 0, len(cs.Outcomes))
			for _, out := range cs.Outcomes {
				advs = append(advs, out.Adv)
			}
			t.Rows = append(t.Rows, []string{
				ds, name,
				fmtF(defense.DetectionRate(fs, fsThr, advs) * 100),
				fmtF(defense.DetectionRate(n2s, n2sThr, advs) * 100),
			})
		}
	}
	return t, nil
}
