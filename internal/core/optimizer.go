package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"duo/internal/metrics"
	"duo/internal/retrieval"
	"duo/internal/telemetry"
	"duo/internal/trace"
	"duo/internal/video"
)

// ErrBudgetExhausted is returned by Oracle.Score when the query budget has
// no room for the request. Strategies that poll Remaining() before scoring
// never see it; it is the harness's backstop against a strategy overspending
// the budget.
var ErrBudgetExhausted = errors.New("core: query budget exhausted")

// BlackBoxOptimizer is one strategy for rectifying a perturbation against
// the black-box victim: given the harness Oracle — the strategy's only
// window onto the victim — it walks candidates until the budget is spent.
//
// The harness owns everything the project's contracts bind: query billing
// (every victim round-trip increments the budget, shed round-trips are
// refunded), span tracing (the `queries` attribute appears only on leaf
// retrieve spans and sums to the billed count), write-only telemetry, and
// the monotone best-so-far trajectory. A strategy proposes candidate
// videos via Oracle.Score and commits progress via Oracle.Accept; it must
// confine its perturbations to Oracle.Support()
// inside the ±τ box (Oracle.ApplyStep / Oracle.SetStep enforce the box),
// draw all randomness from Oracle.Rng(), and never touch the victim by any
// other path. The contract battery in optimizer_contract_test.go holds every
// registered strategy to exactly these rules.
type BlackBoxOptimizer interface {
	// Name is the registry key (the AttackOptions.Strategy /
	// `duoattack -strategy` spelling).
	Name() string
	// Optimize runs the strategy until Oracle.Remaining() hits zero (or
	// the strategy concludes no further progress is possible). On return
	// the harness packages Oracle state into the round's QueryResult.
	Optimize(o *Oracle) error
}

// optimizerRegistry maps strategy names to constructors. Strategies
// register in init(); the map is only ever iterated through the sorted
// OptimizerNames accessor so registry order can never leak into results.
var optimizerRegistry = map[string]func() BlackBoxOptimizer{}

// RegisterOptimizer adds a strategy constructor under its name. It panics
// on duplicates — strategy names are CLI surface, a silent overwrite would
// repoint user flags.
func RegisterOptimizer(name string, mk func() BlackBoxOptimizer) {
	if _, dup := optimizerRegistry[name]; dup {
		panic(fmt.Sprintf("core: duplicate optimizer %q", name))
	}
	optimizerRegistry[name] = mk
}

// OptimizerNames returns the registered strategy names, sorted.
func OptimizerNames() []string {
	names := make([]string, 0, len(optimizerRegistry))
	for name := range optimizerRegistry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// StrategySparseQuery is the default strategy: the paper's SparseQuery
// masked coordinate descent (Algorithm 2).
const StrategySparseQuery = "sparsequery"

// newOptimizer resolves a strategy name; empty selects the paper's
// SparseQuery coordinate descent.
func newOptimizer(name string) (BlackBoxOptimizer, error) {
	if name == "" {
		name = StrategySparseQuery
	}
	mk, ok := optimizerRegistry[name]
	if !ok {
		return nil, fmt.Errorf("core: unknown optimizer %q (have %v)", name, OptimizerNames())
	}
	return mk(), nil
}

// Oracle is the harness a strategy runs against. It wraps the victim with
// the billing, retry, shed-refund, tracing, and telemetry machinery that
// every strategy must share, and carries the walk state (current best
// candidate, its objective 𝕋, the trajectory) the harness reports.
type Oracle struct {
	ctx  *oracleCtx
	cfg  QueryConfig
	eps  float64
	sim  metrics.ListSimilarity
	mode Mode

	v, vt   *video.Video
	masks   *Masks
	support []int

	// retries is the per-query retry allowance for fallible victims.
	retries int

	tr *trace.Tracer
	// qsp is the sparsequery span; retrParent is where the next leaf
	// retrieve span hangs (qsp outside a step, the step span inside one).
	qsp, retrParent *trace.Span

	telQueries *telemetry.Counter
	telShed    *telemetry.Counter
	telTraj    *telemetry.Ring

	queries   int
	shedTotal int

	origList, targetList []string

	cur  *video.Video
	tCur float64
	res  *QueryResult

	// idsBuf backs the ID projection of the most recent victim answer.
	// Every retrieveIDs result aliases it and is consumed (scored) before the
	// next query, so one buffer serves the whole walk; the round-long
	// reference lists are owned copies, never aliases.
	idsBuf []string
	// spares recycles candidate videos a strategy has released: a
	// steady-state walk allocates one candidate per in-flight arm and then
	// reuses that storage for the rest of the round.
	spares []*video.Video
}

// NewCandidate returns a deep copy of Current() for the strategy to
// mutate, drawing storage from the released-candidate stack when one is
// available. Candidates all share the round's geometry, so a recycled
// video is refilled with a flat tensor copy instead of a fresh Clone.
func (o *Oracle) NewCandidate() *video.Video {
	if n := len(o.spares); n > 0 {
		c := o.spares[n-1]
		o.spares = o.spares[:n-1]
		c.Data.CopyFrom(o.cur.Data)
		c.Label, c.ID = o.cur.Label, o.cur.ID
		return c
	}
	return o.cur.Clone()
}

// Release hands a candidate the walk no longer references back to the
// oracle for reuse. Releasing the committed current state, the base, or
// the target is a harmless no-op, so strategies may release every arm
// unconditionally after the accept decision.
func (o *Oracle) Release(cand *video.Video) {
	if cand == nil || cand == o.cur || cand == o.v || cand == o.vt {
		return
	}
	// The spare stack grows to the high-water mark of in-flight candidates
	// (≤ a handful) and then stays flat.
	o.spares = append(o.spares, cand)
}

// oracleCtx is the slice of attack.Context the oracle needs (kept narrow so
// the oracle's victim access is auditable in one place).
type oracleCtx struct {
	victim retrieval.Retriever
	m      int
	rng    *rand.Rand
}

// Rng is the strategy's randomness source: seeded, deterministic, and the
// only legal source (duolint's detrand rule forbids global math/rand in
// this package).
func (o *Oracle) Rng() *rand.Rand { return o.ctx.rng }

// Base returns the round's base video v. Strategies must treat it as
// read-only: candidates are clones with ApplyStep/SetStep writes.
func (o *Oracle) Base() *video.Video { return o.v }

// Masks returns the SparseTransfer prior {ℐ, 𝓕, θ}.
func (o *Oracle) Masks() *Masks { return o.masks }

// Support returns the flat indices a strategy may perturb: the support of
// ℐ⊙𝓕⊙θ (Eq. 4), or of ℐ⊙𝓕 when θ is degenerate.
func (o *Oracle) Support() []int { return o.support }

// Eps is the per-query step size ε (defaulted to τ).
func (o *Oracle) Eps() float64 { return o.eps }

// Tau is the per-element box budget relative to the round's base video.
func (o *Oracle) Tau() float64 { return o.cfg.Tau }

// Budget is the round's query budget.
func (o *Oracle) Budget() int { return o.cfg.MaxQueries }

// Used is the number of queries billed so far (reference fetches and the
// initial evaluation included).
func (o *Oracle) Used() int { return o.queries }

// Remaining is the unspent query budget.
func (o *Oracle) Remaining() int {
	if r := o.cfg.MaxQueries - o.queries; r > 0 {
		return r
	}
	return 0
}

// Current returns the best candidate committed so far (initially the base
// video plus the τ-clamped transfer prior).
func (o *Oracle) Current() *video.Video { return o.cur }

// CurrentT returns the objective 𝕋 of Current.
func (o *Oracle) CurrentT() float64 { return o.tCur }

// Accept applies the non-increase rule of Eq. (3): a candidate whose 𝕋 did
// not increase becomes the new current state (equality keeps the walk
// moving across rank-boundary plateaus). Acceptance can never raise 𝕋, so
// the recorded trajectory is monotone non-increasing for every strategy.
func (o *Oracle) Accept(cand *video.Video, tNew float64) bool {
	if tNew > o.tCur {
		return false
	}
	if tNew < o.tCur {
		o.res.Improved = true
	}
	prev := o.cur
	o.cur = cand
	o.tCur = tNew
	// The displaced state is only ever reachable through o.cur, so its
	// storage can back a future NewCandidate. Release's self/base/target
	// guards make this a no-op when a strategy re-accepts the current state.
	o.Release(prev)
	return true
}

// Record appends the current 𝕋 to the round trajectory (one entry per
// strategy iteration) and to the telemetry ring.
func (o *Oracle) Record() {
	// The trajectory is pre-sized to the query budget at round start; this
	// append grows only on pathological no-query iterations.
	o.res.Trajectory = append(o.res.Trajectory, o.tCur)
	o.telTraj.Push(o.tCur)
}

// Skip notes a candidate abandoned because its victim query failed after
// retries (distributed victims only).
func (o *Oracle) Skip() { o.res.Skipped++ }

// StepStart opens one query.step span under the sparsequery span and
// reparents subsequent leaf retrieve spans under it. Strategies set their
// own attributes on the returned span and must close it with StepEnd.
func (o *Oracle) StepStart() *trace.Span {
	sp := o.tr.Start(o.qsp, "query.step")
	o.retrParent = sp
	return sp
}

// StepEnd closes a step span and reparents retrieve leaves back onto the
// sparsequery span.
func (o *Oracle) StepEnd(sp *trace.Span) {
	sp.End()
	o.retrParent = o.qsp
}

// ApplyStep writes cand[idx] += delta clamped to the ±τ box around the
// base video and the pixel range; it reports whether anything changed.
func (o *Oracle) ApplyStep(cand *video.Video, idx int, delta float64) bool {
	return o.setClamped(cand, idx, cand.Data.Data()[idx]+delta)
}

// SetStep writes cand[idx] = value clamped to the ±τ box around the base
// video and the pixel range; it reports whether anything changed.
func (o *Oracle) SetStep(cand *video.Video, idx int, value float64) bool {
	return o.setClamped(cand, idx, value)
}

func (o *Oracle) setClamped(cand *video.Video, idx int, nv float64) bool {
	d := cand.Data.Data()
	base := o.v.Data.Data()[idx]
	nv = math.Max(base-o.cfg.Tau, math.Min(base+o.cfg.Tau, nv))
	nv = math.Max(video.PixelMin, math.Min(video.PixelMax, nv))
	if nv == d[idx] { // a clipped step is worth a query iff it changed at least one bit
		return false
	}
	d[idx] = nv
	return true
}

// Score issues one billed victim query for cand and returns its objective
// 𝕋. Retries against a fallible victim are billed per attempt; shed
// attempts (ErrOverloaded) are refunded because the victim never served
// them. The round-trip is recorded as one leaf retrieve span whose
// `queries` attribute is exactly what this call billed.
func (o *Oracle) Score(cand *video.Video) (float64, error) {
	if o.queries >= o.cfg.MaxQueries {
		return 0, ErrBudgetExhausted
	}
	return o.objective(cand)
}

// objective is Score without the budget backstop: one victim query plus
// the billing-free Eq. (2) evaluation. The harness uses it directly for
// the initial 𝕋⁰ evaluation, which the paper charges even on a budget of
// one.
func (o *Oracle) objective(qv *video.Video) (float64, error) {
	advList, err := o.retrieveIDs(qv)
	if err != nil {
		return 0, err
	}
	return o.score(advList), nil
}

// score is the billing-free half of the objective: Eq. (2) on an
// already-retrieved list.
func (o *Oracle) score(advList []string) float64 {
	if o.mode == Untargeted {
		return o.sim(advList, o.origList) + o.cfg.Eta
	}
	return metrics.Objective(o.sim, advList, o.origList, o.targetList, o.cfg.Eta)
}

// retrieveIDs issues one victim query through retrieval.Query, retrying a
// failed one up to `retries` extra times; every attempt counts against the
// budget. An infallible victim is simply the case where the first attempt
// returns a nil error. The returned list aliases o.idsBuf and is valid only
// until the next victim query — callers that keep a list across queries (the
// reference fetch) must copy it. A nil error guarantees the list is complete
// — a failed node must never leak a silently-partial top-m into 𝕋 (Eq. 2).
// Each call records one leaf retrieve span whose `queries` attribute is
// exactly what this call billed, retries included — EXCEPT sheds: an attempt
// the victim refused at admission (ErrOverloaded) is refunded, because the
// victim never served it. Shed attempts still consume a retry slot (the loop
// is bounded by `retries`, not by budget), and they surface on the span as a
// `shed` attribute, never inside `queries`. A traced victim (the cluster)
// attributes per-node child spans under the retrieve leaf.
func (o *Oracle) retrieveIDs(qv *video.Video) ([]string, error) {
	rsp := o.tr.Start(o.retrParent, "retrieve")
	billed := 0
	shed := 0
	var lastErr error
	for attempt := 0; attempt <= o.retries; attempt++ {
		if attempt > 0 && o.queries >= o.cfg.MaxQueries {
			break // no budget left to retry
		}
		o.queries++
		billed++
		rs, err := retrieval.Query(o.ctx.victim, rsp.Ctx(), qv, o.ctx.m)
		if errors.Is(err, retrieval.ErrOverloaded) {
			// Load shed: the request never reached a shard, so it is not a
			// query the victim answered. Refund the bill and account the
			// attempt separately.
			o.queries--
			billed--
			shed++
			o.shedTotal++
			o.telShed.Inc()
			lastErr = err
			continue
		}
		o.telQueries.Inc()
		if err == nil {
			rsp.SetInt("queries", int64(billed))
			if shed > 0 {
				rsp.SetInt("shed", int64(shed))
			}
			rsp.SetStr("outcome", "ok")
			rsp.End()
			o.idsBuf = retrieval.IDsInto(o.idsBuf, rs)
			return o.idsBuf, nil
		}
		lastErr = err
	}
	rsp.SetInt("queries", int64(billed))
	if shed > 0 {
		rsp.SetInt("shed", int64(shed))
	}
	if billed == 0 && shed > 0 {
		// Every attempt was refused at admission — the round-trip cost
		// nothing, it just didn't happen.
		rsp.SetStr("outcome", "shed")
	} else {
		rsp.SetStr("outcome", "failed")
	}
	rsp.End()
	return nil, fmt.Errorf("core: victim query failed: %w", lastErr)
}

// permInto fills dst with a pseudo-random permutation of [0, n), growing
// dst only when its capacity is short. It draws exactly the Intn sequence
// rand.Perm draws and applies the same inside-out Fisher–Yates update, so
// swapping one for the other changes neither the permutation nor the RNG
// state — golden strategy fingerprints stay bitwise-identical (pinned by
// TestPermIntoMatchesRandPerm).
func permInto(rng *rand.Rand, dst []int, n int) []int {
	if cap(dst) < n {
		dst = make([]int, n)
	}
	dst = dst[:n]
	// The i=0 iteration is a self-swap, but rand.Perm performs it anyway
	// (its Intn(1) draw advances the generator), so it must stay.
	for i := 0; i < n; i++ {
		j := rng.Intn(i + 1)
		dst[i] = dst[j]
		dst[j] = i
	}
	return dst
}

// fetchReferences bills the reference lists for Eq. (2): the original's
// list, and (targeted) the target's. They outlive every later query, so they
// must own their storage: retrieveIDs results alias the per-query buffer.
func (o *Oracle) fetchReferences() error {
	ids, err := o.retrieveIDs(o.v)
	if err != nil {
		return err
	}
	o.origList = append([]string(nil), ids...)
	if o.mode != Untargeted {
		if ids, err = o.retrieveIDs(o.vt); err != nil {
			return err
		}
		o.targetList = append([]string(nil), ids...)
	}
	return nil
}
