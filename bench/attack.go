package main

import (
	"fmt"
	"math/rand"
	"time"

	"duo/internal/attack"
	"duo/internal/core"
	"duo/internal/dataset"
	"duo/internal/metrics"
	"duo/internal/retrieval"
	"duo/internal/video"
)

// attackTask is one (pair, strategy) attack; tasks are deterministic in the
// run seed, so the k-th attack of any run of a seed is the same attack.
type attackTask struct {
	pair     dataset.AttackPair
	strategy string
	seed     int64
}

// attackResult is one finished attack.
type attackResult struct {
	strategy          string
	wall              time.Duration
	queries           int
	apBefore, apAfter float64
	fingerprint       uint64
	improving, steps  int
}

func (r *runner) attackTasks() []attackTask {
	var tasks []attackTask
	for _, p := range r.fx.sys.SamplePairs(subSeed(r.seed, 101), r.z.AttackPairs) {
		for _, s := range core.OptimizerNames() {
			tasks = append(tasks, attackTask{pair: p, strategy: s, seed: subSeed(r.seed, 1000+len(tasks))})
		}
	}
	return tasks
}

// attackConfig is the DUO configuration both attack workloads share. The
// SparseTransfer early stop is disabled so that every attack does the same
// surrogate work whatever the pair: a run's timing then depends on the
// code, not on which pairs its seed drew.
func (r *runner) attackConfig(strategy string) core.Config {
	cfg := core.DefaultConfig(r.z.geometry())
	cfg.Transfer.Tol = 0
	cfg.Query.Strategy = strategy
	cfg.Query.MaxQueries, cfg.IterNumH = r.z.TransferBudget, r.z.TransferRounds
	if r.w.fleet {
		cfg.Query.MaxQueries, cfg.IterNumH = r.z.QueryBudget, r.z.QueryRounds
	}
	return cfg
}

// attacks is the closed loop of both attack workloads: one caller runs
// attack after attack against the tapped victim until the time is up.
func (r *runner) attacks(secs float64, traced bool) (*measurement, error) {
	tasks := r.attackTasks()
	m := &measurement{}
	lat := make([]time.Duration, 0, 1<<16)
	victim, tap := r.fx.victim(r.tr, &lat)

	pace := newPace()
	start := wallNow()
	for i := 0; wallNow().Sub(start) < seconds(secs); i++ {
		task := tasks[i%len(tasks)]
		res, err := r.attackOnce(task, victim, traced, &m.tally)
		if err != nil {
			return nil, fmt.Errorf("attack %d (%s): %w", i, task.strategy, err)
		}
		m.attacks = append(m.attacks, res)
		m.queries += res.queries
		// Each attack is one slice of the run's wall-clock per billed query;
		// the latency of the victim calls is condensed over the whole window.
		m.slices = append(m.slices, newSlice(distribution{},
			ms(res.wall)/float64(res.queries), float64(res.queries)/res.wall.Seconds(), pace.lap()))
	}
	m.victimCalls = tap.calls
	m.latency = summarize(lat)
	m.callP50Ms, m.callP95Ms, m.callGroups = calmLatency(lat, r.z.CallGroup, pace.readings)
	return m, nil
}

// attackOnce runs and checks one attack. Untraced it is a plain core.Run;
// traced it replays Run's loop stage by stage through the public
// SparseTransfer and SparseQuery so each stage gets a span. The caller
// compares the two paths' fingerprints, which proves the replay (and every
// decorator under it) changes nothing.
func (r *runner) attackOnce(task attackTask, victim retrieval.Retriever, traced bool, t *tally) (attackResult, error) {
	cfg := r.attackConfig(task.strategy)
	ctx := &attack.Context{Victim: victim, M: r.z.M, Rng: rand.New(rand.NewSource(task.seed))}
	v, vt := task.pair.Original, task.pair.Target
	res := attackResult{strategy: task.strategy}

	var adv *video.Video
	var trajectory []float64
	begin := wallNow()
	if !traced {
		out, err := core.Run(ctx, r.fx.surrogate, v, vt, cfg)
		if err != nil {
			return res, err
		}
		adv, res.queries, trajectory = out.Adv, out.Queries, out.Trajectory
	} else {
		root := r.tr.begin(spanAttack, noSpan)
		adv = v
		qcfg := cfg.Query
		qcfg.MaxQueries = max(cfg.Query.MaxQueries/cfg.IterNumH, 1)
		for h := 0; h < cfg.IterNumH; h++ {
			stage := r.tr.begin(spanTransfer, root)
			r.tr.setStage(stage)
			masks, err := core.SparseTransfer(r.fx.surrogate, adv, vt, cfg.Transfer)
			r.tr.end(stage)
			if err != nil {
				return res, err
			}
			stage = r.tr.begin(spanQuery, root)
			r.tr.setStage(stage)
			qr, err := core.SparseQuery(ctx, adv, vt, masks, qcfg)
			r.tr.end(stage)
			if err != nil {
				return res, err
			}
			adv = qr.Adv
			res.queries += qr.Queries
			trajectory = append(trajectory, qr.Trajectory...)
		}
		r.tr.setStage(noSpan)
		r.tr.end(root)
	}
	res.wall = wallNow().Sub(begin)

	// Everything below is evaluation, outside the attack's wall-clock and
	// its trace: AP@m through the untapped victim, then the invariants.
	if traced {
		r.tr.on.Store(false)
		defer r.tr.on.Store(true)
	}
	list := func(x *video.Video) []string { return retrieval.IDs(r.fx.untapped().Retrieve(x, r.z.M)) }
	target := list(vt)
	res.apBefore = 100 * metrics.APAtM(list(v), target)
	res.apAfter = 100 * metrics.APAtM(list(adv), target)
	res.fingerprint = fingerprint(adv)
	for i := 1; i < len(trajectory); i++ {
		res.steps++
		if trajectory[i] < trajectory[i-1] {
			res.improving++
		}
	}

	t.attempted++ // the attack itself; an error above aborts the run instead
	t.check(res.queries <= cfg.Query.MaxQueries, "%s attack billed %d queries over a budget of %d", task.strategy, res.queries, cfg.Query.MaxQueries)
	// τ bounds each round against that round's base video, so the whole
	// attack may move a pixel by at most rounds·τ.
	reach := float64(cfg.IterNumH) * cfg.Query.Tau
	lo, hi, linf := video.PixelMax, video.PixelMin, 0.0
	for i, x := range adv.Data.Data() {
		lo, hi = min(lo, x), max(hi, x)
		linf = max(linf, max(x-v.Data.Data()[i], v.Data.Data()[i]-x))
	}
	t.check(linf <= reach+1e-9, "%s attack moved a pixel by %.3f, over rounds·τ = %.0f", task.strategy, linf, reach)
	t.check(lo >= video.PixelMin && hi <= video.PixelMax, "%s attack left the pixel range: [%.3f, %.3f]", task.strategy, lo, hi)
	return res, nil
}

// untapped is the victim under test without the tap, for evaluation queries
// that must not count as the attack's.
func (fx *fixture) untapped() retrieval.Retriever {
	if fx.fleet != nil {
		return fx.fleet.cluster
	}
	return fx.engine
}
