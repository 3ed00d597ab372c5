package experiments

import (
	"fmt"
	"math/rand"

	"duo/internal/attack"
	"duo/internal/baseline"
	"duo/internal/core"
	"duo/internal/dataset"
	"duo/internal/metrics"
	"duo/internal/models"
	"duo/internal/parallel"
	"duo/internal/retrieval"
)

// AttackNames lists the Table II rows in paper order.
func AttackNames() []string {
	return []string{
		"w/o attack",
		"TIMI-C3D", "TIMI-Res18",
		"HEU-Nes", "HEU-Sim",
		"Vanilla",
		"DUO-C3D", "DUO-Res18",
	}
}

// Budget collects every tunable the sweep tables vary.
type Budget struct {
	// K is the pixel budget (Table V), N the frame budget (Table VI), Tau
	// the magnitude budget (Table VII), IterNumH the pipeline loops
	// (Table VIII).
	K        int
	N        int
	Tau      float64
	IterNumH int
	// Queries is the victim query budget per attack run.
	Queries int
	// Norm selects ℓ∞ (default) or ℓ2 projection (Table IX).
	Norm core.NormConstraint
	// UseNDCG/UseDCT drive the DESIGN.md §6 ablations.
	UseNDCG bool
	// UseDCT switches SparseQuery to the low-frequency DCT basis.
	UseDCT bool
	// TransferOnly skips SparseQuery (Table IX evaluates SparseTransfer
	// alone).
	TransferOnly bool
}

// DefaultBudget derives the paper's default budgets for a scenario.
func (s *Scenario) DefaultBudget() Budget {
	t := core.DefaultTransferConfig(s.Geometry())
	return Budget{
		K: t.K, N: t.N, Tau: t.Tau,
		IterNumH: 2,
		Queries:  s.P.Queries,
		Norm:     core.NormLInf,
		UseNDCG:  true,
	}
}

// CellStats are the per-table-cell aggregates (averaged over pairs).
type CellStats struct {
	APm     float64 // percent
	Spa     float64
	PScore  float64
	Queries float64
	// Trajectories holds each pair's 𝕋 series (used by Fig. 5).
	Trajectories [][]float64
	// Outcomes holds each pair's raw outcome (used by Table X).
	Outcomes []*attack.Outcome
}

// runPairs executes an attack over the pairs concurrently and reduces the
// outcomes into CellStats in pair order. The victim engines are safe for
// concurrent queries and the cached models are frozen; each pair gets its
// own seeded RNG, so the result is bitwise that of a sequential run. Every
// pair gets its own goroutine: a cell has a handful (Params.Pairs) of
// unequal cost, which contiguous shards over the worker count would leave
// unbalanced.
func (s *Scenario) runPairs(victim retrieval.Retriever, pairs []dataset.AttackPair,
	run func(ctx *attack.Context, pair dataset.AttackPair) (*attack.Outcome, error)) (*CellStats, error) {
	outs := make([]*attack.Outcome, len(pairs))
	errs := make([]error, len(pairs))
	parallel.ForN(len(pairs), len(pairs), func(_, ps, pe int) {
		for pi := ps; pi < pe; pi++ {
			rng := rand.New(rand.NewSource(s.Opts.Seed + int64(pi)*997))
			ctx := &attack.Context{Victim: victim, M: s.P.M, Rng: rng, Telemetry: s.Opts.Telemetry}
			outs[pi], errs[pi] = run(ctx, pairs[pi])
		}
	})
	cs := &CellStats{}
	for pi, out := range outs {
		if errs[pi] != nil {
			return nil, errs[pi]
		}
		pair := pairs[pi]
		cs.APm += out.APAtM(victim, pair.Target, s.P.M) * 100
		cs.Spa += float64(out.Spa())
		cs.PScore += out.PScore()
		cs.Queries += float64(out.Queries)
		cs.Trajectories = append(cs.Trajectories, out.Trajectory)
		cs.Outcomes = append(cs.Outcomes, out)
	}
	n := float64(len(pairs))
	cs.APm /= n
	cs.Spa /= n
	cs.PScore /= n
	cs.Queries /= n
	return cs, nil
}

// runAttackCell runs one attack over all pairs against one victim and
// averages the paper's three measures.
func (s *Scenario) runAttackCell(name, ds, victimArch string, pairs []dataset.AttackPair, b Budget) (*CellStats, error) {
	victim, err := s.Victim(ds, victimArch, DefaultVictimLoss)
	if err != nil {
		return nil, err
	}
	// Resolve the surrogate once, not per pair (it is cached).
	var surr models.Model
	switch name {
	case "TIMI-C3D", "TIMI-Res18", "DUO-C3D", "DUO-Res18":
		surr, err = s.surrogateFor(ds, victimArch, name)
		if err != nil {
			return nil, err
		}
	}
	return s.runPairs(victim, pairs, func(ctx *attack.Context, pair dataset.AttackPair) (*attack.Outcome, error) {
		switch name {
		case "w/o attack":
			return attack.NewOutcome(pair.Original, pair.Original.Clone(), 0, nil), nil
		case "TIMI-C3D", "TIMI-Res18":
			return baseline.RunTIMI(surr, pair.Original, pair.Target, baseline.DefaultTIMIConfig())
		case "HEU-Nes", "HEU-Sim":
			sel := baseline.SelectionSaliency
			if name == "HEU-Sim" {
				sel = baseline.SelectionRandom
			}
			cfg := baseline.DefaultHEUConfig(sel, b.K, b.N, b.Tau)
			cfg.MaxQueries = b.Queries
			return baseline.RunHEU(ctx, pair.Original, pair.Target, cfg)
		case "Vanilla":
			cfg := baseline.VanillaConfig{Spa: b.K, Frames: b.N, Tau: b.Tau, MaxQueries: b.Queries, Eta: 0.5}
			return baseline.RunVanilla(ctx, pair.Original, pair.Target, cfg)
		case "DUO-C3D", "DUO-Res18":
			return s.runDUO(ctx, surr, pair, b)
		default:
			return nil, fmt.Errorf("experiments: unknown attack %q", name)
		}
	})
}

// runDUOCell runs DUO over pairs with an explicit victim engine and
// surrogate (used by the sweep tables that vary one of the two).
func (s *Scenario) runDUOCell(victim *retrieval.Engine, surr models.Model, pairs []dataset.AttackPair, b Budget) (*CellStats, error) {
	return s.runPairs(victim, pairs, func(ctx *attack.Context, pair dataset.AttackPair) (*attack.Outcome, error) {
		return s.runDUO(ctx, surr, pair, b)
	})
}

// surrogateArch names the surrogate backbone of a transfer attack variant:
// the "-Res18" variants steal a Resnet18, every other one a C3D.
func surrogateArch(attackName string) string {
	switch attackName {
	case "TIMI-Res18", "DUO-Res18":
		return "Resnet18"
	}
	return "C3D"
}

// surrogateFor resolves the surrogate an attack variant uses.
func (s *Scenario) surrogateFor(ds, victimArch, attackName string) (models.Model, error) {
	return s.Surrogate(ds, victimArch, DefaultVictimLoss, surrogateArch(attackName), s.P.StealCap, s.P.FeatDim)
}

// runDUO assembles a core.Config from a Budget and runs the pipeline.
func (s *Scenario) runDUO(ctx *attack.Context, surr models.Model, pair dataset.AttackPair, b Budget) (*attack.Outcome, error) {
	tcfg := core.DefaultTransferConfig(s.Geometry())
	tcfg.K = b.K
	tcfg.N = b.N
	tcfg.Tau = b.Tau
	tcfg.Norm = b.Norm
	tcfg.OuterIters = 3
	tcfg.ThetaSteps = 15

	if b.TransferOnly {
		masks, err := core.SparseTransfer(surr, pair.Original, pair.Target, tcfg)
		if err != nil {
			return nil, err
		}
		adv := pair.Original.Add(masks.Compose())
		return attack.NewOutcome(pair.Original, adv, 0, nil), nil
	}

	qcfg := core.DefaultQueryConfig()
	qcfg.MaxQueries = b.Queries
	qcfg.Tau = b.Tau
	if !b.UseNDCG {
		qcfg.Sim = metrics.PlainOverlap
	}
	if b.UseDCT {
		qcfg.Basis = core.BasisDCT
	}
	cfg := core.Config{Transfer: tcfg, Query: qcfg, IterNumH: b.IterNumH}
	res, err := core.Run(ctx, surr, pair.Original, pair.Target, cfg)
	if err != nil {
		return nil, err
	}
	return res.Outcome, nil
}

// fmtF renders a float with two decimals.
func fmtF(v float64) string { return fmt.Sprintf("%.2f", v) }

// fmtI renders a float as a rounded integer.
func fmtI(v float64) string { return fmt.Sprintf("%.0f", v) }
