package duo

import (
	"strings"
	"sync"
	"testing"
)

// tinySystemOptions keeps the facade tests fast.
func tinySystemOptions() SystemOptions {
	return SystemOptions{
		Categories: 4, TrainPerCategory: 6, TestPerCategory: 3,
		Frames: 8, Height: 12, Width: 12,
		FeatureDim: 16, TrainEpochs: 3, M: 8, Seed: 61,
	}
}

var (
	sysOnce sync.Once
	sysVal  *System
	surrVal Model
)

func sharedSystem(t *testing.T) (*System, Model) {
	t.Helper()
	sysOnce.Do(func() {
		sys, err := NewSystem(tinySystemOptions())
		if err != nil {
			panic(err)
		}
		surr, err := sys.StealSurrogate(SurrogateOptions{MaxSamples: 16, Epochs: 4})
		if err != nil {
			panic(err)
		}
		sysVal, surrVal = sys, surr
	})
	return sysVal, surrVal
}

func TestNewSystemDefaults(t *testing.T) {
	sys, _ := sharedSystem(t)
	if sys.Corpus == nil || len(sys.Corpus.Train) == 0 {
		t.Fatal("system has no corpus")
	}
	if sys.MAP() <= 0.25 {
		t.Errorf("victim mAP %g at or below chance", sys.MAP())
	}
}

func TestNewSystemRejectsBadOptions(t *testing.T) {
	o := tinySystemOptions()
	o.VictimArch = "VGG"
	if _, err := NewSystem(o); err == nil {
		t.Error("unknown victim arch accepted")
	}
	o = tinySystemOptions()
	o.VictimLoss = "FocalLoss"
	if _, err := NewSystem(o); err == nil {
		t.Error("unknown loss accepted")
	}
}

func TestSystemRetrieve(t *testing.T) {
	sys, _ := sharedSystem(t)
	rs := sys.Retrieve(sys.Corpus.Test[0], 5)
	if len(rs) != 5 {
		t.Fatalf("got %d results", len(rs))
	}
}

func TestSamplePairs(t *testing.T) {
	sys, _ := sharedSystem(t)
	pairs := sys.SamplePairs(1, 4)
	if len(pairs) != 4 {
		t.Fatalf("got %d pairs", len(pairs))
	}
	for _, p := range pairs {
		if p.Original.Label == p.Target.Label {
			t.Error("pair labels equal")
		}
	}
}

func TestAttackEndToEnd(t *testing.T) {
	sys, surr := sharedSystem(t)
	pair := sys.SamplePairs(2, 1)[0]
	rep, err := sys.Attack(pair.Original, pair.Target, surr, AttackOptions{Queries: 120})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Adv == nil {
		t.Fatal("no adversarial video")
	}
	if rep.APAfter < rep.APBefore {
		t.Errorf("attack regressed AP@m: %g → %g", rep.APBefore, rep.APAfter)
	}
	if rep.Spa == 0 {
		t.Error("no perturbation recorded")
	}
	if rep.Queries == 0 || rep.Queries > 120 {
		t.Errorf("queries = %d", rep.Queries)
	}
	if rep.PerturbedFrames == 0 || rep.PerturbedFrames > pair.Original.Frames() {
		t.Errorf("perturbed frames = %d", rep.PerturbedFrames)
	}
}

func TestAttackCustomBudgets(t *testing.T) {
	sys, surr := sharedSystem(t)
	pair := sys.SamplePairs(3, 1)[0]
	rep, err := sys.Attack(pair.Original, pair.Target, surr, AttackOptions{
		K: 50, N: 2, Tau: 20, Queries: 40, IterNumH: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Spa > 50 {
		t.Errorf("Spa %d exceeds k=50", rep.Spa)
	}
	if rep.PerturbedFrames > 2 {
		t.Errorf("frames %d exceeds n=2", rep.PerturbedFrames)
	}
}

func TestDistributedSystemMatchesSingleNode(t *testing.T) {
	o := tinySystemOptions()
	single, err := NewSystem(o)
	if err != nil {
		t.Fatal(err)
	}
	o.Nodes = 3
	sharded, err := NewSystem(o)
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()
	q := single.Corpus.Test[0]
	a := single.Retrieve(q, 6)
	b := sharded.Retrieve(q, 6)
	for i := range a {
		if a[i].ID != b[i].ID {
			t.Fatalf("sharded retrieval differs at %d", i)
		}
	}
}

func TestStealSurrogateResnet(t *testing.T) {
	sys, _ := sharedSystem(t)
	surr, err := sys.StealSurrogate(SurrogateOptions{Arch: "Resnet18", MaxSamples: 8, Epochs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if surr.Name() != "Resnet18" {
		t.Errorf("surrogate arch = %s", surr.Name())
	}
}

// TestTrainedModelsAreFrozen checks that the victim NewSystem trains and
// the surrogate StealSurrogate returns are frozen: attacks backpropagate
// through them to pixels only, and retraining them is refused.
func TestTrainedModelsAreFrozen(t *testing.T) {
	sys, surr := sharedSystem(t)
	for _, m := range []Model{sys.VictimModel(), surr} {
		for _, p := range m.Params() {
			if !p.Frozen() {
				t.Fatalf("%s: parameter %s is not frozen", m.Name(), p.Name)
			}
		}
	}
}

func TestAttackUntargeted(t *testing.T) {
	sys, surr := sharedSystem(t)
	v := sys.Corpus.Train[0]
	rep, err := sys.AttackUntargeted(v, surr, AttackOptions{Queries: 120})
	if err != nil {
		t.Fatal(err)
	}
	if rep.APBefore < 99.9 {
		t.Errorf("APBefore = %g, want ≈ 100 (self retrieval)", rep.APBefore)
	}
	if rep.APAfter > rep.APBefore {
		t.Errorf("untargeted attack increased self AP@m: %g → %g", rep.APBefore, rep.APAfter)
	}
	if rep.Spa == 0 {
		t.Error("no perturbation recorded")
	}
	// An untargeted report measures self-similarity, so success points the
	// other way: the 100 → 40 that is no headway for a targeted run is a win.
	rep.APBefore, rep.APAfter = 100, 40
	if !strings.Contains(rep.String(), "SUCCEEDED") {
		t.Errorf("untargeted 100 → 40 labelled %q", rep.String())
	}
}

func TestReportIncludesQualityMetrics(t *testing.T) {
	sys, surr := sharedSystem(t)
	pair := sys.SamplePairs(6, 1)[0]
	rep, err := sys.Attack(pair.Original, pair.Target, surr, AttackOptions{Queries: 60})
	if err != nil {
		t.Fatal(err)
	}
	if rep.PSNR < 20 {
		t.Errorf("PSNR = %g dB, sparse attack should stay above 20", rep.PSNR)
	}
	if rep.SSIM < 0.7 || rep.SSIM > 1 {
		t.Errorf("SSIM = %g out of expected range", rep.SSIM)
	}
}

func TestReportString(t *testing.T) {
	r := &Report{APBefore: 1, APAfter: 10, Spa: 5, PerturbedFrames: 2, PScore: 0.5, PSNR: 30, SSIM: 0.99, Queries: 7}
	s := r.String()
	for _, want := range []string{"SUCCEEDED", "Spa 5", "7 queries"} {
		if !strings.Contains(s, want) {
			t.Errorf("Report.String() = %q missing %q", s, want)
		}
	}
	r.APAfter = 1
	if !strings.Contains(r.String(), "no headway") {
		t.Error("failed attack not labelled")
	}

	// A targeted report that starts at 100 and falls to 40 lost ground.
	r = &Report{APBefore: 100, APAfter: 40}
	if !strings.Contains(r.String(), "no headway") {
		t.Errorf("targeted 100 → 40 labelled %q", r.String())
	}
}

func TestHashSystem(t *testing.T) {
	o := tinySystemOptions()
	o.Hash = true
	sys, err := NewSystem(o)
	if err != nil {
		t.Fatal(err)
	}
	if sys.MAP() <= 0.25 {
		t.Errorf("hash victim mAP %g at or below chance", sys.MAP())
	}
	rs := sys.Retrieve(sys.Corpus.Test[0], 5)
	if len(rs) != 5 {
		t.Fatalf("got %d results", len(rs))
	}
	// Hamming distances are integral.
	for _, r := range rs {
		if r.Dist != float64(int(r.Dist)) {
			t.Errorf("non-integral Hamming distance %g", r.Dist)
		}
	}
}

func TestHashAndNodesExclusive(t *testing.T) {
	o := tinySystemOptions()
	o.Hash = true
	o.Nodes = 3
	if _, err := NewSystem(o); err == nil {
		t.Error("Hash+Nodes accepted")
	}
}
