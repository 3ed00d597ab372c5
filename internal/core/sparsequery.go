package core

import (
	"fmt"
	"math"

	"duo/internal/attack"
	"duo/internal/mathx"
	"duo/internal/metrics"
	"duo/internal/trace"
	"duo/internal/video"
)

// BasisType selects the search basis of SparseQuery's coordinate descent.
// The zero value is the paper's Cartesian basis (Eq. 4).
type BasisType int

const (
	// BasisCartesian perturbs one element per query (the paper's setting).
	BasisCartesian BasisType = iota
	// BasisDCT perturbs along masked low-frequency 2-D DCT basis functions
	// of one frame/channel per query — the SimBA-DCT refinement of [53],
	// which trades per-element sparsity for smoother, lower-visibility
	// perturbations.
	BasisDCT
)

// QueryConfig parameterizes the black-box rectification stage.
type QueryConfig struct {
	// MaxQueries is iter_numQ, the query budget (1,000 in §V-B).
	MaxQueries int
	// Eta is the margin η in Eq. (2).
	Eta float64
	// Epsilon is the coordinate step size; ‖±εq‖∞ ≤ τ is enforced, so ε
	// defaults to τ when zero.
	Epsilon float64
	// Tau is the per-element budget relative to the *round's* base video.
	Tau float64
	// Sim is the list-similarity ℍ; nil selects the NDCG-weighted
	// CoOccurrence of [10] (plain overlap is the DESIGN.md §6 ablation).
	Sim metrics.ListSimilarity
	// Mode selects Targeted (zero value and default) or Untargeted; the
	// untargeted objective drops the target term of Eq. (2).
	Mode Mode
	// Basis selects Cartesian (default, per the paper) or DCT directions
	// for the sparsequery strategy.
	Basis BasisType
	// Strategy selects the registered BlackBoxOptimizer driving the
	// victim-query walk: "sparsequery" (empty value and default, the
	// paper's Algorithm 2), "sparsers" (Sparse-RS random search), or
	// "evolutionary" (population-based frame-pixel search). Every strategy
	// runs inside the same billing/tracing/shed-refund harness.
	Strategy string
	// QueryRetries is how many extra attempts a failed victim query gets
	// before its candidate step is skipped. Every attempt — retries
	// included — counts against MaxQueries: a flaky victim burns budget,
	// it never corrupts 𝕋 with a partial list. 0 selects the default (2);
	// negative disables retries. Only distributed victims exposing
	// RetrieveErr can fail; plain engines never trigger this path.
	QueryRetries int
}

// DefaultQueryConfig returns the paper's SparseQuery settings scaled down
// (iter_numQ=1,000 in the paper; callers lower it for tests).
func DefaultQueryConfig() QueryConfig {
	return QueryConfig{MaxQueries: 1000, Eta: 0.5, Tau: 30}
}

// QueryResult is the rectification stage's outcome for one round.
type QueryResult struct {
	// Adv is the rectified adversarial video.
	Adv *video.Video
	// Trajectory is 𝕋 after each iteration (Fig. 5).
	Trajectory []float64
	// Queries is the number of victim queries consumed (failed attempts
	// and their retries included — the victim still served them).
	Queries int
	// Improved reports whether any candidate strictly lowered 𝕋.
	Improved bool
	// Skipped counts candidate steps abandoned because the victim query
	// failed even after retries (distributed victims only).
	Skipped int
	// Shed counts victim round-trips refused at admission (ErrOverloaded).
	// A shed request was never served, so it is NOT billed: Queries excludes
	// every shed attempt, keeping the attack's query count equal to what the
	// victim actually answered.
	Shed int
}

// SparseQuery runs the black-box rectification stage: the strategy named
// by cfg.Strategy (Algorithm 2's masked SimBA-style coordinate descent by
// default) walks candidates against the victim. v is the round's base
// video, vt the target, and masks the prior from SparseTransfer;
// perturbations stay inside the support of ℐ⊙𝓕⊙θ (Eq. 4) and within ±τ of
// v on every element, whatever the strategy.
func SparseQuery(ctx *attack.Context, v, vt *video.Video, masks *Masks, cfg QueryConfig) (*QueryResult, error) {
	return sparseQuery(ctx, nil, v, vt, masks, cfg)
}

// sparseQuery is SparseQuery with span recording under parent: one
// sparsequery span (carrying the strategy name), one query.step span per
// strategy iteration, and one leaf retrieve span per victim round-trip.
// The `queries` attribute appears ONLY on retrieve leaves and covers every
// billing site — reference fetches, walk steps, retries — so Σ queries over
// retrieve spans equals the round's billed query count exactly (duotrace
// enforces this). The harness below owns everything the contracts bind; the
// selected BlackBoxOptimizer only ever sees the Oracle.
func sparseQuery(ctx *attack.Context, parent *trace.Span, v, vt *video.Video, masks *Masks, cfg QueryConfig) (*QueryResult, error) {
	if cfg.MaxQueries <= 0 {
		return nil, fmt.Errorf("core: non-positive query budget %d", cfg.MaxQueries)
	}
	if cfg.Tau <= 0 {
		return nil, fmt.Errorf("core: τ=%g must be positive", cfg.Tau)
	}
	strategy, err := newOptimizer(cfg.Strategy)
	if err != nil {
		return nil, err
	}
	sim := cfg.Sim
	if sim == nil {
		sim = metrics.CoOccurrence
	}
	eps := cfg.Epsilon
	if eps <= 0 || eps > cfg.Tau {
		eps = cfg.Tau
	}

	retries := cfg.QueryRetries
	if retries == 0 {
		retries = 2
	}
	if retries < 0 {
		retries = 0
	}

	mode := cfg.Mode
	if mode == 0 {
		mode = Targeted
	}

	// The harness itself bills queries before any strategy step runs: the
	// reference-list fetches plus the initial 𝕋⁰ evaluation. A budget that
	// cannot even cover that overhead would overrun MaxQueries, so reject
	// it as a misconfiguration instead.
	overhead := 2 // R(v) reference + 𝕋⁰
	if mode != Untargeted {
		overhead++ // R(v_t) reference
	}
	if cfg.MaxQueries < overhead {
		return nil, fmt.Errorf("core: query budget %d cannot cover the %d reference/initial queries", cfg.MaxQueries, overhead)
	}

	tr := ctx.Trace
	qsp := tr.Start(parent, "sparsequery")
	defer qsp.End()
	qsp.SetStr("strategy", strategy.Name())

	o := &Oracle{
		ctx:     &oracleCtx{victim: ctx.Victim, m: ctx.M, rng: ctx.Rng},
		cfg:     cfg,
		eps:     eps,
		sim:     sim,
		mode:    mode,
		v:       v,
		vt:      vt,
		masks:   masks,
		retries: retries,
		tr:      tr,
		qsp:     qsp,
		res:     &QueryResult{},
		// Write-only instruments: the query counter burns with the budget
		// and the ring keeps the tail of the 𝕋 trajectory (Fig. 5) for
		// inspection. Neither is ever read back, so telemetry cannot
		// perturb the walk.
		telQueries: ctx.Telemetry.Counter("attack.queries"),
		telShed:    ctx.Telemetry.Counter("attack.shed"),
		telTraj:    ctx.Telemetry.Ring("attack.trajectory", 512),
	}
	o.retrParent = qsp

	// Reference lists for Eq. (2). Untargeted runs have no target list and
	// minimize ℍ(R(v_adv), R(v)) + η alone. A victim that cannot answer
	// the reference queries leaves the round with no objective at all.
	if mode != Untargeted && vt == nil {
		return nil, fmt.Errorf("core: targeted SparseQuery needs a target video")
	}
	if err := o.fetchReferences(); err != nil {
		return nil, err
	}

	// Line 1–2: v_adv⁰ = v + ℐ⊙𝓕⊙θ, 𝕋⁰. The prior is projected into this
	// stage's τ-ball so the ‖v_adv − v‖∞ ≤ τ contract holds even when the
	// caller configured a larger transfer-stage budget.
	adv := v.Add(masks.Compose().Clamp(-cfg.Tau, cfg.Tau))
	tCur, err := o.objective(adv)
	if err != nil {
		return nil, err
	}
	o.cur, o.tCur = adv, tCur

	// Every strategy is restricted to the support of ℐ⊙𝓕⊙θ (Eq. 4).
	support := supportIndices(masks)
	if len(support) == 0 {
		// Degenerate prior (θ ≡ 0 on the mask): explore the mask itself.
		support = maskIndices(masks)
	}
	if len(support) == 0 {
		o.telTraj.Push(tCur)
		return &QueryResult{Adv: adv, Trajectory: []float64{tCur}, Queries: o.queries, Shed: o.shedTotal}, nil
	}
	o.support = support

	// One trajectory entry per strategy iteration, and every iteration
	// spends at least one query on the steady-state path: pre-sizing to the
	// budget keeps Record's append from ever growing the slice mid-walk.
	o.res.Trajectory = make([]float64, 1, cfg.MaxQueries+2)
	o.res.Trajectory[0] = tCur
	o.telTraj.Push(tCur)

	if err := strategy.Optimize(o); err != nil {
		return nil, err
	}

	res := o.res
	res.Adv = o.cur
	res.Queries = o.queries
	res.Shed = o.shedTotal
	qsp.SetInt("support", int64(len(support)))
	qsp.SetInt("round_queries", int64(res.Queries))
	qsp.SetInt("skipped", int64(res.Skipped))
	qsp.SetInt("shed", int64(res.Shed))
	return res, nil
}

func init() {
	RegisterOptimizer(StrategySparseQuery, func() BlackBoxOptimizer { return sparseQueryOpt{} })
}

// sparseQueryOpt is the paper's Algorithm 2 as a BlackBoxOptimizer: masked
// SimBA-style coordinate descent, one ±ε candidate pair per iteration over
// a without-replacement permutation of the support (or masked DCT basis
// directions with cfg.Basis == BasisDCT).
type sparseQueryOpt struct{}

func (sparseQueryOpt) Name() string { return StrategySparseQuery }

func (sparseQueryOpt) Optimize(o *Oracle) error {
	cfg := o.cfg
	v := o.v
	support := o.support
	eps := o.eps
	rng := o.Rng()

	// The retrieval list is a step function of the input, so 𝕋 plateaus
	// between rank boundaries. Eq. (3) therefore accepts non-strictly
	// (𝕋 ≤ 𝕋_prev keeps the +ε step): the walk keeps moving across
	// plateaus and descends whenever it crosses a boundary. Acceptance
	// never increases 𝕋, so the final state is also the best visited.
	perm := permInto(rng, nil, len(support))
	pi := 0

	// makeCandidate builds the κ-th candidate pair generator according to
	// the configured basis.
	cartesianCandidate := func(sign float64) (*video.Video, bool) {
		idx := support[perm[pi%len(perm)]]
		cand := o.NewCandidate()
		return cand, o.ApplyStep(cand, idx, sign*eps)
	}
	var activeFrames []int
	if cfg.Basis == BasisDCT {
		activeFrames = o.masks.ActiveFrames()
		if len(activeFrames) == 0 {
			for f := 0; f < v.Frames(); f++ {
				activeFrames = append(activeFrames, f)
			}
		}
	}
	var dctDir [][]float64
	var dctFrame, dctChannel int
	sampleDCT := func() {
		dctFrame = activeFrames[rng.Intn(len(activeFrames))]
		dctChannel = rng.Intn(v.Channels())
		// Low-frequency quarter of the spectrum.
		maxU := max(1, v.Height()/4)
		maxV := max(1, v.Width()/4)
		dir := mathx.DCTBasis2D(v.Height(), v.Width(), rng.Intn(maxU), rng.Intn(maxV))
		// Normalize to ‖·‖∞ = 1 so ε keeps its per-element meaning.
		peak := 0.0
		for _, row := range dir {
			for _, x := range row {
				if a := math.Abs(x); a > peak {
					peak = a
				}
			}
		}
		if peak > 0 {
			for _, row := range dir {
				for x := range row {
					row[x] /= peak
				}
			}
		}
		dctDir = dir
	}
	dctCandidate := func(sign float64) (*video.Video, bool) {
		cand := o.NewCandidate()
		pm, fm := o.masks.Pixel.Data(), o.masks.Frame.Data()
		perFrame := v.Data.Len() / v.Frames()
		plane := v.Height() * v.Width()
		changed := false
		for y := 0; y < v.Height(); y++ {
			for x := 0; x < v.Width(); x++ {
				idx := dctFrame*perFrame + dctChannel*plane + y*v.Width() + x
				if pm[idx]*fm[idx] == 0 {
					continue
				}
				if o.ApplyStep(cand, idx, sign*eps*dctDir[y][x]) {
					changed = true
				}
			}
		}
		return cand, changed
	}
	buildCandidate := func(sign float64) (*video.Video, bool) {
		if cfg.Basis == BasisDCT {
			return dctCandidate(sign)
		}
		return cartesianCandidate(sign)
	}
	// tryArm issues one query for a prebuilt arm; it reports whether the
	// walk is done with this iteration's pair (the arm was accepted, or the
	// budget ran out before it could be queried).
	tryArm := func(cand *video.Video, changed bool) bool {
		if !changed {
			return false // no-op candidate, don't waste a query
		}
		if o.Remaining() == 0 {
			return true
		}
		tNew, err := o.Score(cand)
		if err != nil {
			// Retry-or-skip: the retries inside the oracle are spent;
			// reject the candidate rather than scoring it against a
			// partial (availability-degraded) retrieval list.
			o.Skip()
			return false
		}
		return o.Accept(cand, tNew)
	}

	for o.Remaining() > 0 {
		// Line 5: sample q from the basis without replacement; reshuffle
		// once the Cartesian basis is exhausted.
		if pi >= len(perm) {
			perm = permInto(rng, perm, len(support))
			pi = 0
		}
		stepSp := o.StepStart()
		if cfg.Basis == BasisDCT {
			sampleDCT()
			stepSp.SetInt("frame", int64(dctFrame))
			stepSp.SetInt("channel", int64(dctChannel))
		} else {
			stepSp.SetInt("pixel", int64(support[perm[pi%len(perm)]]))
		}

		// Lines 6–14 / Eq. (3): build the pair, then try +ε before −ε, one
		// victim query each, keeping the first candidate that does not
		// increase 𝕋 and releasing both arms' storage back to the oracle.
		candP, okP := buildCandidate(1)
		candM, okM := buildCandidate(-1)
		if !tryArm(candP, okP) {
			tryArm(candM, okM)
		}
		o.Release(candP)
		o.Release(candM)
		pi++
		o.Record()
		stepSp.SetFloat("T", o.tCur)
		o.StepEnd(stepSp)
	}
	return nil
}

// supportIndices returns the flat indices where ℐ⊙𝓕⊙θ ≠ 0 (Eq. 4).
func supportIndices(m *Masks) []int {
	composed := m.Compose().Data()
	var out []int
	for i, v := range composed {
		if v != 0 {
			out = append(out, i)
		}
	}
	return out
}

// maskIndices returns the flat indices where ℐ⊙𝓕 ≠ 0 regardless of θ.
func maskIndices(m *Masks) []int {
	p, f := m.Pixel.Data(), m.Frame.Data()
	var out []int
	for i := range p {
		if p[i] != 0 && f[i] != 0 {
			out = append(out, i)
		}
	}
	return out
}
