package losses

import (
	"math"
	"math/rand"
	"testing"

	"duo/internal/tensor"
)

func randEmbs(seed int64, n, dim int) ([]*tensor.Tensor, []int) {
	rng := rand.New(rand.NewSource(seed))
	embs := make([]*tensor.Tensor, n)
	labels := make([]int, n)
	for i := range embs {
		embs[i] = tensor.RandNormal(rng, 0, 1, dim)
		labels[i] = i % 2
	}
	return embs, labels
}

// checkLossGrads compares analytic per-embedding gradients against central
// finite differences.
func checkLossGrads(t *testing.T, l MetricLoss, embs []*tensor.Tensor, labels []int, tol float64) {
	t.Helper()
	for _, p := range l.Params() {
		p.ZeroGrad()
	}
	_, grads := l.Loss(embs, labels)
	const h = 1e-5
	for s := range embs {
		for i := 0; i < embs[s].Len(); i++ {
			orig := embs[s].Data()[i]
			embs[s].Data()[i] = orig + h
			up, _ := l.Loss(embs, labels)
			embs[s].Data()[i] = orig - h
			down, _ := l.Loss(embs, labels)
			embs[s].Data()[i] = orig
			num := (up - down) / (2 * h)
			if math.Abs(num-grads[s].Data()[i]) > tol*(1+math.Abs(num)) {
				t.Fatalf("%s: emb[%d] grad[%d]: analytic %g vs numeric %g",
					l.Name(), s, i, grads[s].Data()[i], num)
			}
		}
	}
}

func TestTripletZeroWhenSeparated(t *testing.T) {
	// Same-class embeddings identical, other class far away: loss must be 0.
	a := tensor.From([]float64{0, 0}, 2)
	b := tensor.From([]float64{0, 0}, 2)
	c := tensor.From([]float64{100, 100}, 2)
	loss, grads := Triplet{Margin: 0.2}.Loss([]*tensor.Tensor{a, b, c}, []int{0, 0, 1})
	if loss != 0 {
		t.Errorf("loss = %g, want 0", loss)
	}
	for _, g := range grads {
		if g.L2() != 0 {
			t.Error("nonzero grad for inactive triplets")
		}
	}
}

func TestTripletPositiveWhenViolated(t *testing.T) {
	// Negative closer than positive: loss must be positive.
	a := tensor.From([]float64{0, 0}, 2)
	p := tensor.From([]float64{3, 0}, 2)
	n := tensor.From([]float64{1, 0}, 2)
	loss, _ := Triplet{Margin: 0.2}.Loss([]*tensor.Tensor{a, p, n}, []int{0, 0, 1})
	if loss <= 0 {
		t.Errorf("loss = %g, want > 0", loss)
	}
}

func TestTripletGradcheck(t *testing.T) {
	embs, labels := randEmbs(1, 4, 3)
	checkLossGrads(t, Triplet{Margin: 0.5}, embs, labels, 1e-4)
}

func TestLiftedGradcheck(t *testing.T) {
	embs, labels := randEmbs(2, 4, 3)
	checkLossGrads(t, Lifted{Margin: 1.0}, embs, labels, 1e-4)
}

func TestAngularGradcheck(t *testing.T) {
	embs, labels := randEmbs(3, 4, 3)
	checkLossGrads(t, Angular{AlphaDeg: 40}, embs, labels, 1e-4)
}

func TestArcFaceGradcheck(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	af := NewArcFace(rng, 3, 4)
	embs := make([]*tensor.Tensor, 3)
	labels := []int{0, 1, 2}
	for i := range embs {
		embs[i] = tensor.RandNormal(rng, 0, 1, 4)
	}
	checkLossGrads(t, af, embs, labels, 1e-3)
}

func TestArcFaceWeightGradcheck(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	af := NewArcFace(rng, 2, 3)
	embs := []*tensor.Tensor{tensor.RandNormal(rng, 0, 1, 3), tensor.RandNormal(rng, 0, 1, 3)}
	labels := []int{0, 1}
	af.W.ZeroGrad()
	_, _ = af.Loss(embs, labels)
	analytic := af.W.Grad.Clone()
	const h = 1e-5
	for i := 0; i < af.W.Value.Len(); i++ {
		orig := af.W.Value.Data()[i]
		af.W.Value.Data()[i] = orig + h
		up, _ := af.Loss(embs, labels)
		af.W.Value.Data()[i] = orig - h
		down, _ := af.Loss(embs, labels)
		af.W.Value.Data()[i] = orig
		num := (up - down) / (2 * h)
		if math.Abs(num-analytic.Data()[i]) > 1e-3*(1+math.Abs(num)) {
			t.Fatalf("W grad[%d]: analytic %g vs numeric %g", i, analytic.Data()[i], num)
		}
	}
}

func TestArcFaceLossDecreasesWithTraining(t *testing.T) {
	// A few SGD steps on embeddings must reduce the loss.
	rng := rand.New(rand.NewSource(6))
	af := NewArcFace(rng, 2, 4)
	embs := []*tensor.Tensor{
		tensor.RandNormal(rng, 0, 1, 4), tensor.RandNormal(rng, 0, 1, 4),
		tensor.RandNormal(rng, 0, 1, 4), tensor.RandNormal(rng, 0, 1, 4),
	}
	labels := []int{0, 0, 1, 1}
	first, _ := af.Loss(embs, labels)
	cur := first
	for step := 0; step < 50; step++ {
		af.W.ZeroGrad()
		var grads []*tensor.Tensor
		cur, grads = af.Loss(embs, labels)
		for i := range embs {
			embs[i].AddScaled(-0.1, grads[i])
		}
		af.W.Value.AddScaled(-0.1, af.W.Grad)
	}
	if cur >= first {
		t.Errorf("loss did not decrease: %g → %g", first, cur)
	}
}

func TestRankedListZeroWhenOrdered(t *testing.T) {
	a := tensor.From([]float64{0}, 1)
	// Ranked list in increasing distance with gaps larger than margin.
	r := []*tensor.Tensor{
		tensor.From([]float64{1}, 1),
		tensor.From([]float64{5}, 1),
		tensor.From([]float64{10}, 1),
	}
	loss, ga, _ := RankedList{Margin: 0.2}.Loss(a, r)
	if loss != 0 {
		t.Errorf("loss = %g, want 0", loss)
	}
	if ga.L2() != 0 {
		t.Error("nonzero anchor grad for ordered list")
	}
}

func TestRankedListPenalizesInversions(t *testing.T) {
	a := tensor.From([]float64{0}, 1)
	// Item ranked first is farther than item ranked second: inversion.
	r := []*tensor.Tensor{
		tensor.From([]float64{10}, 1),
		tensor.From([]float64{1}, 1),
	}
	loss, _, _ := RankedList{Margin: 0.2}.Loss(a, r)
	if loss <= 0 {
		t.Errorf("loss = %g, want > 0", loss)
	}
}

func TestRankedListGradcheck(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := tensor.RandNormal(rng, 0, 1, 3)
	r := []*tensor.Tensor{
		tensor.RandNormal(rng, 0, 1, 3),
		tensor.RandNormal(rng, 0, 1, 3),
		tensor.RandNormal(rng, 0, 1, 3),
	}
	l := RankedList{Margin: 0.5}
	_, ga, gs := l.Loss(a, r)
	const h = 1e-5
	lossAt := func() float64 { v, _, _ := l.Loss(a, r); return v }
	for i := 0; i < a.Len(); i++ {
		orig := a.Data()[i]
		a.Data()[i] = orig + h
		up := lossAt()
		a.Data()[i] = orig - h
		down := lossAt()
		a.Data()[i] = orig
		num := (up - down) / (2 * h)
		if math.Abs(num-ga.Data()[i]) > 1e-4*(1+math.Abs(num)) {
			t.Fatalf("anchor grad[%d]: %g vs %g", i, ga.Data()[i], num)
		}
	}
	for s := range r {
		for i := 0; i < r[s].Len(); i++ {
			orig := r[s].Data()[i]
			r[s].Data()[i] = orig + h
			up := lossAt()
			r[s].Data()[i] = orig - h
			down := lossAt()
			r[s].Data()[i] = orig
			num := (up - down) / (2 * h)
			if math.Abs(num-gs[s].Data()[i]) > 1e-4*(1+math.Abs(num)) {
				t.Fatalf("ranked[%d] grad[%d]: %g vs %g", s, i, gs[s].Data()[i], num)
			}
		}
	}
}

func TestLossNames(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	cases := []struct {
		l    MetricLoss
		want string
	}{
		{Triplet{}, "Triplet"},
		{Lifted{}, "LiftedLoss"},
		{Angular{}, "AngularLoss"},
		{NewArcFace(rng, 2, 2), "ArcFaceLoss"},
	}
	for _, c := range cases {
		if c.l.Name() != c.want {
			t.Errorf("Name() = %q, want %q", c.l.Name(), c.want)
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"ArcFaceLoss", "LiftedLoss", "AngularLoss", "Triplet"} {
		l, err := ByName(name, rand.New(rand.NewSource(8)), 3, 4)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if l.Name() != name {
			t.Errorf("ByName(%q).Name() = %q", name, l.Name())
		}
	}
	// ArcFace draws its class centres exactly as NewArcFace does.
	got, _ := ByName("ArcFaceLoss", rand.New(rand.NewSource(8)), 3, 4)
	want := NewArcFace(rand.New(rand.NewSource(8)), 3, 4)
	for i, w := range want.W.Value.Data() {
		if got.Params()[0].Value.Data()[i] != w {
			t.Fatalf("ArcFace centre %d = %g, want %g", i, got.Params()[0].Value.Data()[i], w)
		}
	}
	if _, err := ByName("Contrastive", rand.New(rand.NewSource(8)), 3, 4); err == nil {
		t.Error("unknown loss accepted")
	}
}

func TestSingleClassBatchNoNaN(t *testing.T) {
	// All labels equal: no negatives, losses must return 0 without NaN.
	embs, _ := randEmbs(9, 3, 2)
	labels := []int{0, 0, 0}
	for _, l := range []MetricLoss{Triplet{Margin: 0.2}, Lifted{Margin: 1}, Angular{AlphaDeg: 40}} {
		loss, grads := l.Loss(embs, labels)
		if math.IsNaN(loss) || loss != 0 {
			t.Errorf("%s: loss = %g, want 0", l.Name(), loss)
		}
		for _, g := range grads {
			if g.L2() != 0 {
				t.Errorf("%s: nonzero grad", l.Name())
			}
		}
	}
}

func TestCrossEntropyGradcheck(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	ce := NewCrossEntropy(rng, 3, 4)
	embs := make([]*tensor.Tensor, 3)
	labels := []int{0, 1, 2}
	for i := range embs {
		embs[i] = tensor.RandNormal(rng, 0, 1, 4)
	}
	checkLossGrads(t, ce, embs, labels, 1e-4)
}

func TestCrossEntropyWeightGradcheck(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ce := NewCrossEntropy(rng, 2, 3)
	embs := []*tensor.Tensor{tensor.RandNormal(rng, 0, 1, 3), tensor.RandNormal(rng, 0, 1, 3)}
	labels := []int{0, 1}
	for _, p := range ce.Params() {
		p.ZeroGrad()
	}
	_, _ = ce.Loss(embs, labels)
	analyticW := ce.W.Grad.Clone()
	analyticB := ce.B.Grad.Clone()
	const h = 1e-5
	check := func(val, grad *tensor.Tensor, name string) {
		for i := 0; i < val.Len(); i++ {
			orig := val.Data()[i]
			val.Data()[i] = orig + h
			up, _ := ce.Loss(embs, labels)
			val.Data()[i] = orig - h
			down, _ := ce.Loss(embs, labels)
			val.Data()[i] = orig
			num := (up - down) / (2 * h)
			if math.Abs(num-grad.Data()[i]) > 1e-4*(1+math.Abs(num)) {
				t.Fatalf("%s grad[%d]: analytic %g vs numeric %g", name, i, grad.Data()[i], num)
			}
		}
	}
	check(ce.W.Value, analyticW, "W")
	check(ce.B.Value, analyticB, "B")
}

func TestCrossEntropyTrainsToPerfectAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	ce := NewCrossEntropy(rng, 2, 4)
	// Two linearly separable clusters.
	var embs []*tensor.Tensor
	var labels []int
	for i := 0; i < 10; i++ {
		a := tensor.RandNormal(rng, -2, 0.3, 4)
		b := tensor.RandNormal(rng, 2, 0.3, 4)
		embs = append(embs, a, b)
		labels = append(labels, 0, 1)
	}
	for step := 0; step < 60; step++ {
		for _, p := range ce.Params() {
			p.ZeroGrad()
		}
		_, _ = ce.Loss(embs, labels)
		ce.W.Value.AddScaled(-0.5, ce.W.Grad)
		ce.B.Value.AddScaled(-0.5, ce.B.Grad)
	}
	if acc := ce.Accuracy(embs, labels); acc < 0.99 {
		t.Errorf("accuracy = %g after training separable data", acc)
	}
	if got := ce.Accuracy(nil, nil); got != 0 {
		t.Errorf("empty accuracy = %g", got)
	}
}
