package core

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"duo/internal/attack"
	"duo/internal/dataset"
	"duo/internal/metrics"
	"duo/internal/models"
	"duo/internal/nn/losses"
	"duo/internal/retrieval"
	"duo/internal/surrogate"
	"duo/internal/trace"
	"duo/internal/video"
)

// fixture is the shared attack scenario: a trained victim retrieval system,
// a stolen-and-trained surrogate, and the corpus. Built once per test run.
type fixture struct {
	corpus *dataset.Corpus
	victim *retrieval.Engine
	surr   models.Model
	geom   models.Geometry
	origin *video.Video
	target *video.Video
	m      int
}

var (
	fixOnce sync.Once
	fix     *fixture
)

func getFixture(t *testing.T) *fixture {
	t.Helper()
	fixOnce.Do(func() {
		c, err := dataset.Generate(dataset.Config{
			Name: "CoreSim", Categories: 4, TrainPerCategory: 6, TestPerCategory: 3,
			Frames: 8, Channels: 3, Height: 12, Width: 12, Seed: 31,
		})
		if err != nil {
			panic(err)
		}
		rng := rand.New(rand.NewSource(32))
		g := models.GeometryOf(c.Train[0])
		victimModel := models.NewSlowFast(rng, g, 16)
		tc := models.DefaultTrainConfig()
		tc.Epochs = 4
		if _, err := models.Train(victimModel, losses.Triplet{Margin: 0.2}, c.Train, tc); err != nil {
			panic(err)
		}
		eng := retrieval.NewEngine(victimModel, c.Train)

		samples, err := surrogate.Steal(eng, surrogate.CorpusLookup(c.Train), c.Test, surrogate.DefaultStealConfig())
		if err != nil {
			panic(err)
		}
		surr := models.NewC3D(rand.New(rand.NewSource(33)), g, 16)
		if _, err := surrogate.Train(surr, samples, surrogate.DefaultTrainConfig()); err != nil {
			panic(err)
		}

		// Pick an attack pair with distinct labels.
		var origin, target *video.Video
		for _, v := range c.Train {
			if origin == nil {
				origin = v
				continue
			}
			if v.Label != origin.Label {
				target = v
				break
			}
		}
		fix = &fixture{corpus: c, victim: eng, surr: surr, geom: g, origin: origin, target: target, m: 8}
	})
	if fix == nil {
		t.Fatal("fixture build failed")
	}
	return fix
}

func testTransferConfig(g models.Geometry) TransferConfig {
	cfg := DefaultTransferConfig(g)
	cfg.OuterIters = 2
	cfg.ThetaSteps = 8
	return cfg
}

func TestSparseTransferRespectsBudgets(t *testing.T) {
	f := getFixture(t)
	cfg := testTransferConfig(f.geom)
	masks, err := SparseTransfer(f.surr, f.origin, f.target, cfg)
	if err != nil {
		t.Fatal(err)
	}
	phi := masks.Compose()
	if got := phi.L0(); got > cfg.K {
		t.Errorf("‖φ‖₀ = %d > k = %d", got, cfg.K)
	}
	if got := phi.L20(); got > cfg.N {
		t.Errorf("‖φ‖₂,₀ = %d > n = %d", got, cfg.N)
	}
	if got := phi.LInf(); got > cfg.Tau+1e-9 {
		t.Errorf("‖φ‖∞ = %g > τ = %g", got, cfg.Tau)
	}
	if got := len(masks.ActiveFrames()); got != cfg.N {
		t.Errorf("active frames = %d, want %d", got, cfg.N)
	}
	// ℐ must have exactly k ones.
	if got := masks.Pixel.L0(); got != cfg.K {
		t.Errorf("1ᵀℐ = %d, want %d", got, cfg.K)
	}
}

func TestSparseTransferMovesTowardTarget(t *testing.T) {
	f := getFixture(t)
	cfg := testTransferConfig(f.geom)
	masks, err := SparseTransfer(f.surr, f.origin, f.target, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tf := models.Embed(f.surr, f.target)
	before := models.Embed(f.surr, f.origin).SquaredDistance(tf)
	adv := f.origin.Add(masks.Compose())
	after := models.Embed(f.surr, adv).SquaredDistance(tf)
	if after >= before {
		t.Errorf("surrogate feature distance did not shrink: %g → %g", before, after)
	}
}

// decoratedModel embeds a Model the way bench's tracing decorators do, so
// models.BackwardFrames cannot see the graph behind it.
type decoratedModel struct{ models.Model }

// TestSparseTransferSameBitsThroughDecorator pins that the frame-restricted
// surrogate gradient changes no bit of Algorithm 1: a frozen C3D and
// ResNet18, which take the restricted backward, return the same masks, θ
// and loss as the same models behind a decorator, which take the full one.
// The returned θ may come from outer iteration 1, where every step takes
// the full gradient, so the Eq. 1 loss each transfer.theta span records
// after its restricted steps is compared too.
func TestSparseTransferSameBitsThroughDecorator(t *testing.T) {
	f := getFixture(t)
	run := func(s models.Model, cfg TransferConfig) (*Masks, []float64) {
		t.Helper()
		tr := trace.New("same-bits")
		m, err := sparseTransfer(tr, nil, s, f.origin, f.target, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var losses []float64
		for _, r := range tr.Records() {
			if l, ok := r.Float("loss"); ok && r.Name == "transfer.theta" {
				losses = append(losses, l)
			}
		}
		return m, losses
	}
	for _, name := range []string{"C3D", "Resnet18"} {
		s, err := models.Build(name, rand.New(rand.NewSource(34)), f.geom, 16)
		if err != nil {
			t.Fatal(err)
		}
		models.Freeze(s)
		for _, norm := range []NormConstraint{NormLInf, NormL2} {
			cfg := DefaultTransferConfig(f.geom)
			cfg.Norm, cfg.Tol = norm, 0
			bare, bareLosses := run(s, cfg)
			dec, decLosses := run(decoratedModel{s}, cfg)
			if len(bareLosses) != cfg.OuterIters {
				t.Fatalf("%s: %d transfer.theta losses, want %d", name, len(bareLosses), cfg.OuterIters)
			}
			for _, p := range []struct {
				what string
				a, b []float64
			}{
				{"ℐ", bare.Pixel.Data(), dec.Pixel.Data()},
				{"𝓕", bare.Frame.Data(), dec.Frame.Data()},
				{"θ", bare.Theta.Data(), dec.Theta.Data()},
				{"loss", []float64{bare.Loss}, []float64{dec.Loss}},
				{"θ-stage loss", bareLosses, decLosses},
			} {
				for i := range p.a {
					if math.Float64bits(p.a[i]) != math.Float64bits(p.b[i]) {
						t.Fatalf("%s norm=%d: %s[%d] = %v bare, %v decorated", name, norm, p.what, i, p.a[i], p.b[i])
					}
				}
			}
		}
	}
}

func TestSparseTransferL2Norm(t *testing.T) {
	f := getFixture(t)
	cfg := testTransferConfig(f.geom)
	cfg.Norm = NormL2
	masks, err := SparseTransfer(f.surr, f.origin, f.target, cfg)
	if err != nil {
		t.Fatal(err)
	}
	phi := masks.Compose()
	// The ℓ2 budget bounds total energy; allow the 0.5-per-element
	// quantization slack on top of the ball radius.
	radius := cfg.Tau * math.Sqrt(float64(cfg.K)) / 2
	slack := 0.5 * math.Sqrt(float64(phi.Len()))
	if got := phi.L2(); got > radius+slack {
		t.Errorf("ℓ2 variant energy %g exceeds radius %g", got, radius)
	}
}

func TestSparseTransferValidation(t *testing.T) {
	f := getFixture(t)
	cases := []func(*TransferConfig){
		func(c *TransferConfig) { c.K = 0 },
		func(c *TransferConfig) { c.K = f.origin.Data.Len() + 1 },
		func(c *TransferConfig) { c.N = 0 },
		func(c *TransferConfig) { c.N = f.origin.Frames() + 1 },
		func(c *TransferConfig) { c.Tau = -1 },
		func(c *TransferConfig) { c.OuterIters = 0 },
	}
	for i, mutate := range cases {
		cfg := testTransferConfig(f.geom)
		mutate(&cfg)
		if _, err := SparseTransfer(f.surr, f.origin, f.target, cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	// Shape mismatch.
	other := video.New(f.origin.Frames()/2, f.origin.Channels(), f.origin.Height(), f.origin.Width())
	if _, err := SparseTransfer(f.surr, f.origin, other, testTransferConfig(f.geom)); err == nil {
		t.Error("shape mismatch accepted")
	}
}

func newCtx(f *fixture, seed int64) *attack.Context {
	return &attack.Context{Victim: f.victim, M: f.m, Rng: rand.New(rand.NewSource(seed))}
}

func testQueryConfig() QueryConfig {
	cfg := DefaultQueryConfig()
	cfg.MaxQueries = 60
	// Match the transfer stage's τ so the prior is inside the query
	// stage's budget.
	cfg.Tau = DefaultTransferConfig(models.Geometry{Frames: 8, Channels: 3, Height: 12, Width: 12}).Tau
	return cfg
}

func TestSparseQueryTrajectoryMonotone(t *testing.T) {
	f := getFixture(t)
	masks, err := SparseTransfer(f.surr, f.origin, f.target, testTransferConfig(f.geom))
	if err != nil {
		t.Fatal(err)
	}
	qr, err := SparseQuery(newCtx(f, 1), f.origin, f.target, masks, testQueryConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(qr.Trajectory); i++ {
		if qr.Trajectory[i] > qr.Trajectory[i-1]+1e-12 {
			t.Fatalf("𝕋 increased at step %d: %g → %g", i, qr.Trajectory[i-1], qr.Trajectory[i])
		}
	}
	if qr.Queries > testQueryConfig().MaxQueries {
		t.Errorf("queries %d exceeded budget %d", qr.Queries, testQueryConfig().MaxQueries)
	}
}

func TestSparseQueryStaysInSupportAndBudget(t *testing.T) {
	f := getFixture(t)
	cfg := testTransferConfig(f.geom)
	masks, err := SparseTransfer(f.surr, f.origin, f.target, cfg)
	if err != nil {
		t.Fatal(err)
	}
	qr, err := SparseQuery(newCtx(f, 2), f.origin, f.target, masks, testQueryConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Every element outside ℐ⊙𝓕 must be untouched relative to v + φ₀
	// (SparseQuery explores at most the mask, per Eq. 4 with the
	// degenerate-θ fallback).
	base := f.origin.Add(masks.Compose())
	pm, fm := masks.Pixel.Data(), masks.Frame.Data()
	for i := range pm {
		if pm[i]*fm[i] == 0 && qr.Adv.Data.Data()[i] != base.Data.Data()[i] {
			t.Fatalf("element %d outside the mask was modified", i)
		}
	}
	// τ constraint versus the round's base video.
	delta := qr.Adv.Data.Sub(f.origin.Data)
	if got := delta.LInf(); got > testQueryConfig().Tau+1e-9 {
		t.Errorf("‖v_adv − v‖∞ = %g > τ", got)
	}
}

func TestSparseQueryErrors(t *testing.T) {
	f := getFixture(t)
	masks, _ := SparseTransfer(f.surr, f.origin, f.target, testTransferConfig(f.geom))
	bad := testQueryConfig()
	bad.MaxQueries = 0
	if _, err := SparseQuery(newCtx(f, 3), f.origin, f.target, masks, bad); err == nil {
		t.Error("zero budget accepted")
	}
	bad = testQueryConfig()
	bad.Tau = 0
	if _, err := SparseQuery(newCtx(f, 3), f.origin, f.target, masks, bad); err == nil {
		t.Error("zero τ accepted")
	}
}

func TestSparseQueryDegeneratePrior(t *testing.T) {
	f := getFixture(t)
	// All-zero θ: SparseQuery must fall back to exploring the mask.
	masks := &Masks{
		Pixel: f.origin.Data.Clone(),
		Frame: f.origin.Data.Clone(),
		Theta: f.origin.Data.Clone(),
	}
	masks.Pixel.Fill(1)
	masks.Frame.Fill(1)
	masks.Theta.Zero()
	qr, err := SparseQuery(newCtx(f, 4), f.origin, f.target, masks, testQueryConfig())
	if err != nil {
		t.Fatal(err)
	}
	if qr.Adv == nil {
		t.Fatal("nil adversarial video")
	}
}

func TestRunDUOEndToEnd(t *testing.T) {
	f := getFixture(t)
	cfg := Config{
		Transfer: testTransferConfig(f.geom),
		Query:    testQueryConfig(),
		IterNumH: 2,
	}
	cfg.Query.MaxQueries = 80
	res, err := Run(newCtx(f, 5), f.surr, f.origin, f.target, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != 2 {
		t.Errorf("rounds = %d", len(res.Rounds))
	}
	if res.Queries == 0 || len(res.Trajectory) == 0 {
		t.Error("no queries/trajectory recorded")
	}
	// Perturbation accounting: the effective delta must stay sparse
	// (≤ iter_numH × k elements) and bounded (≤ iter_numH × τ).
	if got, cap := res.Spa(), cfg.IterNumH*cfg.Transfer.K; got > cap {
		t.Errorf("Spa = %d > %d", got, cap)
	}
	if got := res.Delta.LInf(); got > float64(cfg.IterNumH)*cfg.Transfer.Tau+1e-9 {
		t.Errorf("‖φ‖∞ = %g", got)
	}
	// The attack must not move retrieval away from the target.
	origList := retrieval.IDs(f.victim.Retrieve(f.origin, f.m))
	tgtList := retrieval.IDs(f.victim.Retrieve(f.target, f.m))
	advList := retrieval.IDs(f.victim.Retrieve(res.Adv, f.m))
	before := metrics.APAtM(origList, tgtList)
	after := metrics.APAtM(advList, tgtList)
	if after < before {
		t.Errorf("AP@m regressed: %g → %g", before, after)
	}
}

func TestRunDUODeterministic(t *testing.T) {
	f := getFixture(t)
	cfg := Config{Transfer: testTransferConfig(f.geom), Query: testQueryConfig(), IterNumH: 1}
	a, err := Run(newCtx(f, 7), f.surr, f.origin, f.target, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(newCtx(f, 7), f.surr, f.origin, f.target, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Adv.Data.Equal(b.Adv.Data, 0) {
		t.Error("same seed produced different adversarial videos")
	}
}

func TestRunDUOValidation(t *testing.T) {
	f := getFixture(t)
	cfg := Config{Transfer: testTransferConfig(f.geom), Query: testQueryConfig(), IterNumH: 0}
	if _, err := Run(newCtx(f, 8), f.surr, f.origin, f.target, cfg); err == nil {
		t.Error("iter_numH=0 accepted")
	}
}

func TestMasksComposeMatchesParts(t *testing.T) {
	f := getFixture(t)
	masks, _ := SparseTransfer(f.surr, f.origin, f.target, testTransferConfig(f.geom))
	phi := masks.Compose()
	// φ must be zero wherever any factor is zero and equal θ where both
	// masks are one.
	p, fr, th := masks.Pixel.Data(), masks.Frame.Data(), masks.Theta.Data()
	for i, v := range phi.Data() {
		want := p[i] * fr[i] * th[i]
		if v != want {
			t.Fatalf("compose[%d] = %g, want %g", i, v, want)
		}
	}
}
