package experiments

import (
	"fmt"

	"duo/internal/video"
)

// StealthComparison extends Table II with visual-quality metrics: per
// attack, the PSNR and global SSIM of the adversarial video against the
// original, next to the paper's sparsity measures Spa and PScore. The two
// families capture different stealth notions — sparsity (how many pixels
// change) versus amplitude (how much each pixel changes) — and the table
// reports both without conflating them.
func StealthComparison(s *Scenario) (*Table, error) {
	ds := s.Opts.datasets()[0]
	victimArch := s.Opts.victimArchs()[0]
	pairs, err := s.Pairs(ds)
	if err != nil {
		return nil, err
	}
	b := s.DefaultBudget()

	t := &Table{
		ID:      "stealth",
		Title:   fmt.Sprintf("visual stealthiness per attack (%s, victim %s)", ds, victimArch),
		Headers: []string{"Attack", "Spa", "PScore", "PSNR(dB)", "SSIM"},
		Notes: []string{
			"the paper argues stealth via sparsity (Spa, PScore): sparse attacks touch ~7× fewer elements",
			"PSNR/global-SSIM instead reward low per-pixel amplitude, which favors dense TIMI — the two stealth notions (few pixels vs faint pixels) measure different things and are reported side by side",
		},
	}
	attacks := []string{"TIMI-C3D", "HEU-Nes", "Vanilla", "DUO-C3D"}
	for _, name := range attacks {
		cs, err := s.runAttackCell(name, ds, victimArch, pairs, b)
		if err != nil {
			return nil, fmt.Errorf("stealth/%s: %w", name, err)
		}
		psnr, ssim := 0.0, 0.0
		for pi, out := range cs.Outcomes {
			psnr += video.PSNR(pairs[pi].Original, out.Adv)
			ssim += video.SSIM(pairs[pi].Original, out.Adv)
		}
		n := float64(len(cs.Outcomes))
		t.Rows = append(t.Rows, []string{
			name, fmtI(cs.Spa), fmtF(cs.PScore), fmtF(psnr / n), fmt.Sprintf("%.4f", ssim/n),
		})
	}
	return t, nil
}
