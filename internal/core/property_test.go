package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"duo/internal/models"
	"duo/internal/video"
)

// TestPropSparseTransferBudgetsAlwaysHold drives SparseTransfer with
// randomized budgets on a minimal geometry and checks every Eq. (1)
// constraint on the output, whatever the inputs.
func TestPropSparseTransferBudgetsAlwaysHold(t *testing.T) {
	g := models.Geometry{Frames: 4, Channels: 1, Height: 6, Width: 6}
	elems := g.Frames * g.Channels * g.Height * g.Width
	surr := models.NewC3D(rand.New(rand.NewSource(81)), g, 4)
	rng := rand.New(rand.NewSource(82))
	mk := func() *video.Video {
		v := video.New(g.Frames, g.Channels, g.Height, g.Width)
		v.Data.FillUniform(rng, 0, 255)
		return v
	}

	f := func(kRaw, nRaw uint8, tauRaw uint8) bool {
		k := 1 + int(kRaw)%(elems-1)
		n := 1 + int(nRaw)%g.Frames
		tau := 5 + float64(tauRaw%60)
		cfg := TransferConfig{
			K: k, N: n, Tau: tau,
			Lambda:     1e-3,
			OuterIters: 1, ThetaSteps: 3,
			Schedule: DefaultTransferConfig(g).Schedule,
			Norm:     NormLInf,
			Tol:      1e-4,
		}
		masks, err := SparseTransfer(surr, mk(), mk(), cfg)
		if err != nil {
			return false
		}
		phi := masks.Compose()
		return phi.L0() <= k &&
			phi.L20() <= n &&
			phi.LInf() <= tau+1e-9 &&
			masks.Pixel.L0() == k &&
			len(masks.ActiveFrames()) == n
	}
	cfg := &quick.Config{MaxCount: 25}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestPropSparseQueryNeverExceedsTau randomizes the query stage and checks
// the ‖v_adv − v‖∞ ≤ τ and query-budget invariants.
func TestPropSparseQueryNeverExceedsTau(t *testing.T) {
	f := getFixture(t)
	masks, err := SparseTransfer(f.surr, f.origin, f.target, testTransferConfig(f.geom))
	if err != nil {
		t.Fatal(err)
	}
	prop := func(seed int64, budgetRaw, tauRaw uint8) bool {
		cfg := QueryConfig{
			MaxQueries: 5 + int(budgetRaw)%40,
			Eta:        0.5,
			Tau:        10 + float64(tauRaw%50),
		}
		ctx := newCtx(f, seed)
		qr, err := SparseQuery(ctx, f.origin, f.target, masks, cfg)
		if err != nil {
			return false
		}
		delta := qr.Adv.Data.Sub(f.origin.Data)
		if delta.LInf() > cfg.Tau+1e-9 {
			return false
		}
		if qr.Queries > cfg.MaxQueries {
			return false
		}
		// Monotone trajectory.
		for i := 1; i < len(qr.Trajectory); i++ {
			if qr.Trajectory[i] > qr.Trajectory[i-1]+1e-12 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 10}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}
