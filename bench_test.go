package duo

// bench_test.go regenerates every table and figure of the paper's
// evaluation as a Go benchmark (one Benchmark per artifact, per the
// experiment index in DESIGN.md §4), plus end-to-end pipeline benchmarks
// of the public API. Each iteration builds a fresh experiments.Scenario, so
// it rebuilds the full scenario — corpus, victims, surrogates, attacks — and
// the reported time is the cost of regenerating the artifact from scratch at
// Tiny scale. (cmd/duobench shares one Scenario across the experiments of a
// run, so its per-experiment times exclude artifacts built before.)
//
// Run: go test -bench=. -benchmem

import (
	"testing"

	"duo/internal/experiments"
)

// benchOptions restricts the sweep to one dataset and one victim so the
// whole suite completes in minutes; cmd/duobench runs the full grid.
func benchOptions() experiments.Options {
	return experiments.Options{
		Scale:       experiments.Tiny,
		Seed:        1,
		Datasets:    []string{experiments.UCF101Sim},
		VictimArchs: []string{"I3D"},
	}
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Run(id, experiments.NewScenario(benchOptions()))
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

// BenchmarkFig3VictimMAP regenerates Fig. 3 (victim mAPs per backbone and
// loss).
func BenchmarkFig3VictimMAP(b *testing.B) { benchExperiment(b, "fig3") }

// BenchmarkFig4SurrogateMAP regenerates Fig. 4 (surrogate mAP vs stolen
// dataset size and feature size).
func BenchmarkFig4SurrogateMAP(b *testing.B) { benchExperiment(b, "fig4") }

// BenchmarkFig5QueryCurves regenerates Fig. 5 (objective 𝕋 vs queries).
func BenchmarkFig5QueryCurves(b *testing.B) { benchExperiment(b, "fig5") }

// BenchmarkTable2AttackComparison regenerates Table II (all attacks on all
// victims).
func BenchmarkTable2AttackComparison(b *testing.B) { benchExperiment(b, "table2") }

// BenchmarkTable3SurrogateSize regenerates Table III (surrogate dataset
// size sweep).
func BenchmarkTable3SurrogateSize(b *testing.B) { benchExperiment(b, "table3") }

// BenchmarkTable4VictimLoss regenerates Table IV (victim loss sweep).
func BenchmarkTable4VictimLoss(b *testing.B) { benchExperiment(b, "table4") }

// BenchmarkTable5KSweep regenerates Table V (pixel budget k sweep).
func BenchmarkTable5KSweep(b *testing.B) { benchExperiment(b, "table5") }

// BenchmarkTable6NSweep regenerates Table VI (frame budget n sweep).
func BenchmarkTable6NSweep(b *testing.B) { benchExperiment(b, "table6") }

// BenchmarkTable7TauSweep regenerates Table VII (τ sweep).
func BenchmarkTable7TauSweep(b *testing.B) { benchExperiment(b, "table7") }

// BenchmarkTable8IterNumH regenerates Table VIII (iter_numH sweep).
func BenchmarkTable8IterNumH(b *testing.B) { benchExperiment(b, "table8") }

// BenchmarkTable9Transfer regenerates Table IX (SparseTransfer
// transferability under ℓ2/ℓ∞).
func BenchmarkTable9Transfer(b *testing.B) { benchExperiment(b, "table9") }

// BenchmarkTable10Defenses regenerates Table X (defense detection rates).
func BenchmarkTable10Defenses(b *testing.B) { benchExperiment(b, "table10") }

// BenchmarkAblationNDCG regenerates the NDCG-vs-plain-overlap ablation.
func BenchmarkAblationNDCG(b *testing.B) { benchExperiment(b, "ablation-ndcg") }

// BenchmarkAblationMask regenerates the masked-vs-dense SimBA ablation.
func BenchmarkAblationMask(b *testing.B) { benchExperiment(b, "ablation-mask") }

// --- end-to-end pipeline benchmarks over the public API -----------------

func benchSystem(b *testing.B) (*System, Model) {
	b.Helper()
	sys, err := NewSystem(tinySystemOptions())
	if err != nil {
		b.Fatal(err)
	}
	surr, err := sys.StealSurrogate(SurrogateOptions{MaxSamples: 16, Epochs: 3})
	if err != nil {
		b.Fatal(err)
	}
	return sys, surr
}

// BenchmarkSystemBuild measures victim training plus gallery indexing.
func BenchmarkSystemBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewSystem(tinySystemOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSurrogateSteal measures black-box dataset stealing plus
// surrogate training.
func BenchmarkSurrogateSteal(b *testing.B) {
	sys, err := NewSystem(tinySystemOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.StealSurrogate(SurrogateOptions{MaxSamples: 16, Epochs: 3, Seed: int64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDUOAttack measures one full targeted DUO run (SparseTransfer +
// SparseQuery, iter_numH=2).
func BenchmarkDUOAttack(b *testing.B) {
	sys, surr := benchSystem(b)
	pair := sys.SamplePairs(2, 1)[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Attack(pair.Original, pair.Target, surr, AttackOptions{Queries: 120, Seed: int64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDUOAttackUntargeted measures one full untargeted DUO run.
func BenchmarkDUOAttackUntargeted(b *testing.B) {
	sys, surr := benchSystem(b)
	v := sys.Corpus.Train[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.AttackUntargeted(v, surr, AttackOptions{Queries: 120, Seed: int64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRetrieveQuery measures one victim R^m(v) query (feature
// extraction + gallery scan), the unit every black-box attack pays per
// query.
func BenchmarkRetrieveQuery(b *testing.B) {
	sys, _ := benchSystem(b)
	q := sys.Corpus.Test[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rs := sys.Retrieve(q, sys.M); len(rs) == 0 {
			b.Fatal("empty retrieval")
		}
	}
}

// BenchmarkEnsembleDefense regenerates the §V-D ensemble-defense
// evaluation.
func BenchmarkEnsembleDefense(b *testing.B) { benchExperiment(b, "ensemble") }

// BenchmarkStealthComparison regenerates the visual-stealthiness table
// (PSNR/SSIM per attack).
func BenchmarkStealthComparison(b *testing.B) { benchExperiment(b, "stealth") }

// BenchmarkAblationDCT regenerates the Cartesian-vs-DCT basis ablation.
func BenchmarkAblationDCT(b *testing.B) { benchExperiment(b, "ablation-dct") }
