package retrieval

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"math/rand"

	"duo/internal/dataset"
	"duo/internal/models"
	"duo/internal/telemetry"
)

// stubTransport is a canned-answer node for fault-layer unit tests.
type stubTransport struct {
	mu    sync.Mutex
	rs    []Result
	err   error
	calls int
}

func (s *stubTransport) Nearest(feat []float64, m int) ([]Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calls++
	if s.err != nil {
		return nil, s.err
	}
	out := s.rs
	if m >= 0 && m < len(out) {
		out = out[:m]
	}
	return out, nil
}

func (s *stubTransport) Close() error { return nil }

func (s *stubTransport) callCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls
}

func stubResults(n int) []Result {
	rs := make([]Result, n)
	for i := range rs {
		rs[i] = Result{ID: fmt.Sprintf("v%02d", i), Label: i % 3, Dist: float64(i)}
	}
	return rs
}

// chaosSystem builds a cheap deterministic victim: an untrained (but
// seeded) extractor over a tiny corpus — distances are arbitrary but
// stable, which is all the fault-tolerance tests need.
func chaosSystem(t *testing.T) (models.Model, *dataset.Corpus) {
	t.Helper()
	c, err := dataset.Generate(dataset.Config{
		Name: "ChaosSim", Categories: 3, TrainPerCategory: 4, TestPerCategory: 2,
		Frames: 6, Channels: 3, Height: 8, Width: 8, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := models.NewC3D(rand.New(rand.NewSource(8)), models.GeometryOf(c.Train[0]), 12)
	return m, c
}

func TestFaultTransportDeterministicSchedule(t *testing.T) {
	mk := func() *FaultTransport {
		return NewFaultTransport(&stubTransport{rs: stubResults(8)}, FaultConfig{
			Seed: 42, PDrop: 0.2, PError: 0.2, PCorrupt: 0.1, PDelay: 0.1,
			Delay: time.Nanosecond,
		})
	}
	a, b := mk(), mk()
	for i := 0; i < 200; i++ {
		_, errA := a.Nearest([]float64{1}, 4)
		_, errB := b.Nearest([]float64{1}, 4)
		if (errA == nil) != (errB == nil) || (errA != nil && errA.Error() != errB.Error()) {
			t.Fatalf("call %d diverged: %v vs %v", i, errA, errB)
		}
	}
	if a.Stats() != b.Stats() {
		t.Errorf("stats diverged: %+v vs %+v", a.Stats(), b.Stats())
	}
	st := a.Stats()
	if st.Drops == 0 || st.Errors == 0 || st.Corrupts == 0 || st.Delays == 0 {
		t.Errorf("expected every fault mode to fire over 200 calls: %+v", st)
	}
}

func TestFaultTransportModes(t *testing.T) {
	inner := &stubTransport{rs: stubResults(8)}

	drop := NewFaultTransport(inner, FaultConfig{PDrop: 1})
	if _, err := drop.Nearest(nil, 4); !errors.Is(err, ErrInjectedDrop) {
		t.Errorf("drop mode: %v", err)
	}
	if inner.callCount() != 0 {
		t.Error("drop mode reached the inner transport")
	}

	fail := NewFaultTransport(inner, FaultConfig{PError: 1})
	if _, err := fail.Nearest(nil, 4); !errors.Is(err, ErrInjectedFailure) {
		t.Errorf("error mode: %v", err)
	}

	corrupt := NewFaultTransport(inner, FaultConfig{PCorrupt: 1})
	rs, err := corrupt.Nearest(nil, 8)
	if !errors.Is(err, ErrInjectedCorrupt) {
		t.Errorf("corrupt mode: %v", err)
	}
	if len(rs) != 4 {
		t.Errorf("corrupt mode returned %d results, want truncated 4", len(rs))
	}

	var slept time.Duration
	delay := NewFaultTransport(inner, FaultConfig{
		PDelay: 1, Delay: 30 * time.Millisecond,
		Sleep: func(d time.Duration) { slept += d },
	})
	if _, err := delay.Nearest(nil, 4); err != nil {
		t.Errorf("delay mode: %v", err)
	}
	if slept != 30*time.Millisecond {
		t.Errorf("delay mode slept %v", slept)
	}
}

func TestRetryTransportRecoversWithDeterministicBackoff(t *testing.T) {
	run := func() ([]time.Duration, int64, error) {
		inner := &stubTransport{rs: stubResults(4)}
		flaky := NewFaultTransport(inner, FaultConfig{})
		flaky.FailNext(2, ErrInjectedDrop)
		var sleeps []time.Duration
		rt := NewRetryTransport(flaky, RetryConfig{
			MaxAttempts: 4, BaseDelay: 10 * time.Millisecond, MaxDelay: 40 * time.Millisecond,
			Seed:  99,
			Sleep: func(d time.Duration) { sleeps = append(sleeps, d) },
		})
		_, err := rt.Nearest([]float64{1}, 2)
		return sleeps, rt.Retries(), err
	}
	s1, retries, err := run()
	if err != nil {
		t.Fatalf("retry did not recover: %v", err)
	}
	if retries != 2 || len(s1) != 2 {
		t.Fatalf("retries = %d, sleeps = %v", retries, s1)
	}
	// Jittered capped exponential: retry k sleeps in [base·2^k/2, base·2^k).
	for k, d := range s1 {
		base := 10 * time.Millisecond << uint(k)
		if d < base/2 || d >= base {
			t.Errorf("retry %d slept %v, want in [%v, %v)", k, d, base/2, base)
		}
	}
	s2, _, _ := run()
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("backoff schedule not deterministic: %v vs %v", s1, s2)
		}
	}
}

func TestRetryTransportExhaustsAttempts(t *testing.T) {
	inner := &stubTransport{err: ErrInjectedFailure, rs: stubResults(2)}
	rt := NewRetryTransport(inner, RetryConfig{MaxAttempts: 3, Sleep: func(time.Duration) {}})
	if _, err := rt.Nearest(nil, 1); !errors.Is(err, ErrInjectedFailure) {
		t.Errorf("err = %v", err)
	}
	if inner.callCount() != 3 {
		t.Errorf("inner called %d times, want 3", inner.callCount())
	}
}

func TestRetryTransportDoesNotRetryOpenBreaker(t *testing.T) {
	inner := &stubTransport{err: ErrBreakerOpen}
	rt := NewRetryTransport(inner, RetryConfig{MaxAttempts: 5, Sleep: func(time.Duration) {}})
	if _, err := rt.Nearest(nil, 1); !errors.Is(err, ErrBreakerOpen) {
		t.Errorf("err = %v", err)
	}
	if inner.callCount() != 1 {
		t.Errorf("inner called %d times, want 1 (fast-fail must not be retried)", inner.callCount())
	}
}

// fakeClock is a manually-advanced clock for deterministic breaker tests.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

func TestBreakerTripsFastFailsAndRecovers(t *testing.T) {
	clock := &fakeClock{now: time.Unix(0, 0)}
	inner := &stubTransport{rs: stubResults(4)}
	flaky := NewFaultTransport(inner, FaultConfig{})
	br := NewBreakerTransport(flaky, BreakerConfig{
		FailureThreshold: 3, Cooldown: time.Second, Now: clock.Now,
	})

	// K consecutive failures trip the breaker.
	flaky.FailNext(100, ErrInjectedFailure)
	for i := 0; i < 3; i++ {
		if _, err := br.Nearest(nil, 2); !errors.Is(err, ErrInjectedFailure) {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if br.State() != BreakerOpen {
		t.Fatalf("state = %v, want open", br.State())
	}

	// Open: calls fail fast without touching the (still dead) node.
	before := flaky.Stats().Calls
	for i := 0; i < 5; i++ {
		if _, err := br.Nearest(nil, 2); !errors.Is(err, ErrBreakerOpen) {
			t.Fatalf("open call %d: %v", i, err)
		}
	}
	if got := flaky.Stats().Calls; got != before {
		t.Errorf("open breaker still forwarded calls: %d → %d", before, got)
	}
	if br.ShortCircuits() != 5 {
		t.Errorf("short circuits = %d, want 5", br.ShortCircuits())
	}

	// Cooldown elapses while the node is still dead: the half-open probe
	// fails and re-opens the breaker.
	clock.Advance(time.Second)
	if br.State() != BreakerHalfOpen {
		t.Fatalf("state = %v, want half-open after cooldown", br.State())
	}
	if _, err := br.Nearest(nil, 2); !errors.Is(err, ErrInjectedFailure) {
		t.Fatalf("probe: %v", err)
	}
	if br.State() != BreakerOpen {
		t.Fatalf("state after failed probe = %v, want open", br.State())
	}

	// Node recovers; after another cooldown the probe succeeds and the
	// breaker closes.
	flaky.FailNext(0, nil)
	clock.Advance(time.Second)
	if _, err := br.Nearest(nil, 2); err != nil {
		t.Fatalf("probe after recovery: %v", err)
	}
	if br.State() != BreakerClosed {
		t.Fatalf("state after successful probe = %v, want closed", br.State())
	}
	if _, err := br.Nearest(nil, 2); err != nil {
		t.Errorf("closed breaker call: %v", err)
	}
}

func TestBreakerSuccessResetsConsecutiveCount(t *testing.T) {
	inner := &stubTransport{rs: stubResults(2)}
	flaky := NewFaultTransport(inner, FaultConfig{})
	br := NewBreakerTransport(flaky, BreakerConfig{FailureThreshold: 3})
	// failure, failure, success, failure, failure: never 3 in a row.
	for _, fail := range []bool{true, true, false, true, true} {
		if fail {
			flaky.FailNext(1, ErrInjectedFailure)
		}
		br.Nearest(nil, 1)
	}
	if br.State() != BreakerClosed {
		t.Errorf("state = %v, want closed (failures were not consecutive)", br.State())
	}
}

// TestChaosDeadlineHungNode: a node that hangs longer than the deadline
// must not stall the scatter/gather query.
func TestChaosDeadlineHungNode(t *testing.T) {
	m, c := chaosSystem(t)

	// A "node" that accepts connections and then never responds.
	hung, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hung.Close()
	go func() {
		for {
			conn, err := hung.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // hold the conn silently until test teardown
		}
	}()

	hungTr, err := DialNodeConfig(hung.Addr().String(), TCPConfig{Timeout: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	healthy := &LocalTransport{Shard: NewShard(m, c.Train)}
	cl := NewCluster(m, []Transport{healthy, hungTr})
	defer cl.Close()

	start := time.Now()
	rs, err := cl.RetrieveErr(c.Test[0], 5)
	elapsed := time.Since(start)
	if err == nil {
		t.Error("hung node did not surface an error")
	}
	if len(rs) != 5 {
		t.Errorf("got %d best-effort results from the healthy node", len(rs))
	}
	if elapsed > 5*time.Second {
		t.Errorf("query stalled %v despite the 150ms deadline", elapsed)
	}
}

// TestChaosTransientErrorsRecover: a node with transient errors is retried
// with backoff and the merged list matches the all-healthy cluster's.
func TestChaosTransientErrorsRecover(t *testing.T) {
	m, c := chaosSystem(t)
	half := len(c.Train) / 2
	shardA := NewShard(m, c.Train[:half])
	shardB := NewShard(m, c.Train[half:])

	reference := NewCluster(m, []Transport{
		&LocalTransport{Shard: shardA}, &LocalTransport{Shard: shardB},
	})
	defer reference.Close()
	want, err := reference.RetrieveErr(c.Test[0], 6)
	if err != nil {
		t.Fatal(err)
	}

	flaky := NewFaultTransport(&LocalTransport{Shard: shardB}, FaultConfig{})
	flaky.FailNext(2, ErrInjectedDrop)
	retried := NewRetryTransport(flaky, RetryConfig{
		MaxAttempts: 4, Seed: 5, Sleep: func(time.Duration) {},
	})
	cl := NewCluster(m, []Transport{&LocalTransport{Shard: shardA}, retried}).
		SetPolicy(RequireAll())
	defer cl.Close()

	got, err := cl.RetrieveErr(c.Test[0], 6)
	if err != nil {
		t.Fatalf("transient faults leaked through retry: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID {
			t.Fatalf("merged list differs at %d: %v vs %v", i, got[i].ID, want[i].ID)
		}
	}
	if retried.Retries() != 2 {
		t.Errorf("retries = %d, want 2", retried.Retries())
	}
}

// TestChaosBreakerSkipsDeadNode: a persistently dead node trips its
// breaker and is skipped (fail-fast) until a half-open probe succeeds.
func TestChaosBreakerSkipsDeadNode(t *testing.T) {
	m, c := chaosSystem(t)
	half := len(c.Train) / 2
	clock := &fakeClock{now: time.Unix(0, 0)}

	dead := NewFaultTransport(&LocalTransport{Shard: NewShard(m, c.Train[half:])}, FaultConfig{})
	dead.FailNext(1<<30, ErrInjectedDrop)
	br := NewBreakerTransport(dead, BreakerConfig{
		FailureThreshold: 2, Cooldown: time.Minute, Now: clock.Now,
	})
	cl := NewCluster(m, []Transport{
		&LocalTransport{Shard: NewShard(m, c.Train[:half])}, br,
	})
	defer cl.Close()

	q := c.Test[0]
	// Two failed queries trip the node's breaker.
	for i := 0; i < 2; i++ {
		if _, err := cl.RetrieveErr(q, 4); err == nil {
			t.Fatal("dead node did not surface an error")
		}
	}
	if br.State() != BreakerOpen {
		t.Fatalf("breaker = %v, want open", br.State())
	}

	// While open, queries keep answering from the live node without
	// touching the dead one.
	before := dead.Stats().Calls
	for i := 0; i < 3; i++ {
		rs, err := cl.RetrieveErr(q, 4)
		if err == nil || len(rs) == 0 {
			t.Fatalf("best-effort under open breaker: err=%v, %d results", err, len(rs))
		}
	}
	if got := dead.Stats().Calls; got != before {
		t.Errorf("open breaker forwarded %d calls to the dead node", got-before)
	}

	// Health surfaces the breaker state and failure counts.
	h := cl.Health()
	if h[1].Breaker != "open" || h[1].ConsecutiveFailures < 2 || h[1].Healthy() {
		t.Errorf("node 1 health = %+v, want open breaker with failures", h[1])
	}
	if !h[0].Healthy() || h[0].Successes == 0 {
		t.Errorf("node 0 health = %+v, want healthy", h[0])
	}

	// Node revives; after the cooldown the half-open probe succeeds and
	// the cluster is whole again.
	dead.FailNext(0, nil)
	clock.Advance(time.Minute)
	if _, err := cl.RetrieveErr(q, 4); err != nil {
		t.Fatalf("probe query after revival: %v", err)
	}
	if br.State() != BreakerClosed {
		t.Errorf("breaker = %v, want closed after successful probe", br.State())
	}
	if h := cl.Health(); !h[1].Healthy() {
		t.Errorf("revived node 1 health = %+v, want healthy", h[1])
	}
}

// TestChaosPartialResultPolicies: table-driven acceptance test — 1 of 3
// nodes fails under each policy.
func TestChaosPartialResultPolicies(t *testing.T) {
	m, c := chaosSystem(t)
	third := len(c.Train) / 3
	shards := []*Shard{
		NewShard(m, c.Train[:third]),
		NewShard(m, c.Train[third:2*third]),
		NewShard(m, c.Train[2*third:]),
	}
	q := c.Test[1]

	cases := []struct {
		name      string
		policy    Policy
		nodeDown  bool
		wantErr   bool
		wantEmpty bool
	}{
		{"best-effort/healthy", BestEffort(), false, false, false},
		{"best-effort/1-down", BestEffort(), true, true, false},
		{"require-all/healthy", RequireAll(), false, false, false},
		{"require-all/1-down", RequireAll(), true, true, true},
		{"quorum2/healthy", Quorum(2), false, false, false},
		{"quorum2/1-down", Quorum(2), true, false, false},
		{"quorum3/1-down", Quorum(3), true, true, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			nodes := make([]Transport, len(shards))
			for i, sh := range shards {
				nodes[i] = &LocalTransport{Shard: sh}
			}
			if tc.nodeDown {
				ft := NewFaultTransport(nodes[2], FaultConfig{PError: 1})
				nodes[2] = ft
			}
			cl := NewCluster(m, nodes).SetPolicy(tc.policy)
			defer cl.Close()
			rs, err := cl.RetrieveErr(q, 5)
			if tc.wantErr && err == nil {
				t.Errorf("policy %v: expected an error", tc.policy)
			}
			if !tc.wantErr && err != nil {
				t.Errorf("policy %v: unexpected error %v", tc.policy, err)
			}
			if tc.wantEmpty && len(rs) != 0 {
				t.Errorf("policy %v: got %d results, want none", tc.policy, len(rs))
			}
			if !tc.wantEmpty && len(rs) == 0 {
				t.Errorf("policy %v: got no results", tc.policy)
			}
		})
	}
}

// TestTCPTransportSurvivesServerRestart is the regression test for
// connection poisoning: a transport must recover (a fresh connection)
// after its server dies and comes back.
func TestTCPTransportSurvivesServerRestart(t *testing.T) {
	m, c := chaosSystem(t)
	shard := NewShard(m, c.Train[:6])
	srv, err := ServeNode("127.0.0.1:0", shard)
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	tr, err := DialNode(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	feat := models.Embed(m, c.Test[0]).Data()
	if _, err := tr.Nearest(feat, 3); err != nil {
		t.Fatalf("healthy call: %v", err)
	}

	// Kill the server: the in-flight connection dies and the next call
	// must fail (the old transport would stay poisoned forever here).
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Nearest(feat, 3); err == nil {
		t.Fatal("call against a dead server succeeded")
	}

	// Restart on the same address; the transport reconnects by itself.
	srv2, err := ServeNode(addr, shard)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	rs, err := tr.Nearest(feat, 3)
	if err != nil {
		t.Fatalf("call after restart: %v", err)
	}
	if len(rs) != 3 {
		t.Errorf("got %d results after restart", len(rs))
	}
	if tr.Reconnects() == 0 {
		t.Error("transport did not record a reconnect")
	}
}

// TestTCPTransportKeepsConnOnNodeError: a well-framed node-side error must
// not cost the connection (the stream is still in sync).
func TestTCPTransportKeepsConnOnNodeError(t *testing.T) {
	m, c := chaosSystem(t)
	srv, err := ServeNode("127.0.0.1:0", NewShard(m, c.Train[:6]))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tr, err := DialNode(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	feat := models.Embed(m, c.Test[0]).Data()
	if _, err := tr.Nearest(feat, -1); err == nil {
		t.Fatal("negative m accepted")
	}
	if _, err := tr.Nearest(feat, 2); err != nil {
		t.Fatalf("call after node error: %v", err)
	}
	if tr.Reconnects() != 0 {
		t.Errorf("reconnects = %d, want 0 (app errors must not break the conn)", tr.Reconnects())
	}
}

// TestRetryTelemetryMatchesFaultSchedule scripts an exact fault schedule
// and requires the retry counters to mirror it exactly: attempts = calls +
// injected transient faults, retries = injected transient faults.
func TestRetryTelemetryMatchesFaultSchedule(t *testing.T) {
	reg := telemetry.New()
	flaky := NewFaultTransport(&stubTransport{rs: stubResults(4)}, FaultConfig{})
	rt := NewRetryTransport(flaky, RetryConfig{MaxAttempts: 4, Sleep: func(time.Duration) {}})
	rt.SetTelemetry(reg, "node.retry")

	// Schedule: call 1 → 2 transient faults then success; call 2 → clean;
	// call 3 → 1 transient fault then success. Total: 3 retries, 6 attempts.
	schedule := []int{2, 0, 1}
	for i, faults := range schedule {
		flaky.FailNext(faults, ErrInjectedDrop)
		if _, err := rt.Nearest([]float64{1}, 2); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}

	s := reg.Snapshot()
	wantRetries := int64(2 + 0 + 1)
	if got := s.Counters["node.retry.retries"]; got != wantRetries {
		t.Errorf("retries counter = %d, want %d (the injected fault count)", got, wantRetries)
	}
	if got := s.Counters["node.retry.attempts"]; got != int64(len(schedule))+wantRetries {
		t.Errorf("attempts counter = %d, want %d", got, int64(len(schedule))+wantRetries)
	}
	if got := rt.Retries(); got != wantRetries {
		t.Errorf("Retries() = %d disagrees with telemetry %d", got, wantRetries)
	}
}

// TestRetryTelemetryExcludesBreakerFastFail: a breaker fast-fail aborts the
// retry loop, so it must appear as one attempt and zero retries — never
// double-counted as a retried failure.
func TestRetryTelemetryExcludesBreakerFastFail(t *testing.T) {
	reg := telemetry.New()
	inner := &stubTransport{err: ErrBreakerOpen}
	rt := NewRetryTransport(inner, RetryConfig{MaxAttempts: 5, Sleep: func(time.Duration) {}})
	rt.SetTelemetry(reg, "node.retry")

	if _, err := rt.Nearest(nil, 1); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("err = %v", err)
	}
	s := reg.Snapshot()
	if got := s.Counters["node.retry.attempts"]; got != 1 {
		t.Errorf("attempts = %d, want 1 (fast-fail is not retried)", got)
	}
	if got := s.Counters["node.retry.retries"]; got != 0 {
		t.Errorf("retries = %d, want 0 (fast-fail must not count as a retry)", got)
	}
}

// TestBreakerTelemetryMatchesFaultSchedule drives the breaker through
// trip → fast-fail → failed probe → recovery with a scripted fault schedule
// and asserts every counter and the state gauge track it exactly.
func TestBreakerTelemetryMatchesFaultSchedule(t *testing.T) {
	reg := telemetry.New()
	clock := &fakeClock{now: time.Unix(0, 0)}
	flaky := NewFaultTransport(&stubTransport{rs: stubResults(4)}, FaultConfig{})
	br := NewBreakerTransport(flaky, BreakerConfig{
		FailureThreshold: 3, Cooldown: time.Minute, Now: clock.Now,
	})
	br.SetTelemetry(reg, "node.breaker")

	state := func() int64 { return reg.Snapshot().Gauges["node.breaker.state"] }
	if state() != int64(BreakerClosed) {
		t.Fatalf("initial state gauge = %d, want closed", state())
	}

	// 3 consecutive injected failures trip the breaker once.
	flaky.FailNext(3, ErrInjectedFailure)
	for i := 0; i < 3; i++ {
		br.Nearest(nil, 2)
	}
	s := reg.Snapshot()
	if s.Counters["node.breaker.opened"] != 1 {
		t.Errorf("opened = %d, want 1", s.Counters["node.breaker.opened"])
	}
	if state() != int64(BreakerOpen) {
		t.Errorf("state gauge = %d, want open", state())
	}

	// 4 calls while open: all short-circuit, none reach the node.
	for i := 0; i < 4; i++ {
		if _, err := br.Nearest(nil, 2); !errors.Is(err, ErrBreakerOpen) {
			t.Fatalf("open call %d: %v", i, err)
		}
	}
	s = reg.Snapshot()
	if got := s.Counters["node.breaker.short_circuits"]; got != 4 {
		t.Errorf("short_circuits = %d, want 4", got)
	}
	if got := br.ShortCircuits(); got != 4 {
		t.Errorf("ShortCircuits() = %d disagrees with telemetry", got)
	}

	// Failed half-open probe re-opens: a second opened transition.
	flaky.FailNext(1, ErrInjectedFailure)
	clock.Advance(time.Minute)
	br.Nearest(nil, 2)
	if got := reg.Snapshot().Counters["node.breaker.opened"]; got != 2 {
		t.Errorf("opened after failed probe = %d, want 2", got)
	}

	// Successful probe closes; the gauge must settle on closed.
	clock.Advance(time.Minute)
	if _, err := br.Nearest(nil, 2); err != nil {
		t.Fatalf("recovery probe: %v", err)
	}
	if state() != int64(BreakerClosed) {
		t.Errorf("state gauge = %d, want closed after recovery", state())
	}
	// No extra short-circuits were recorded along the way.
	if got := reg.Snapshot().Counters["node.breaker.short_circuits"]; got != 4 {
		t.Errorf("short_circuits drifted to %d, want 4", got)
	}
}

// TestClusterTelemetryMatchesFaultSchedule wires a cluster with one healthy
// and one dying node (behind a breaker) and checks the per-node counters
// split exactly: real failures land in .errors, breaker fast-fails in
// .fastfail, and neither is double-counted.
func TestClusterTelemetryMatchesFaultSchedule(t *testing.T) {
	m, c := chaosSystem(t)
	half := len(c.Train) / 2
	reg := telemetry.New()
	clock := &fakeClock{now: time.Unix(0, 0)}

	dead := NewFaultTransport(&LocalTransport{Shard: NewShard(m, c.Train[half:])}, FaultConfig{})
	dead.FailNext(1<<30, ErrInjectedDrop)
	br := NewBreakerTransport(dead, BreakerConfig{
		FailureThreshold: 2, Cooldown: time.Hour, Now: clock.Now,
	})
	br.SetTelemetry(reg, "cluster.node1.breaker")
	cl := NewCluster(m, []Transport{
		&LocalTransport{Shard: NewShard(m, c.Train[:half])}, br,
	})
	cl.SetTelemetry(reg)
	defer cl.Close()

	q := c.Test[0]
	// 2 queries reach the dying node and fail, tripping the breaker; the
	// next 3 fast-fail without touching it.
	for i := 0; i < 5; i++ {
		cl.RetrieveErr(q, 4)
	}

	s := reg.Snapshot()
	if got := s.Counters["cluster.node1.errors"]; got != 2 {
		t.Errorf("node1 errors = %d, want exactly the 2 injected pre-trip faults", got)
	}
	if got := s.Counters["cluster.node1.fastfail"]; got != 3 {
		t.Errorf("node1 fastfail = %d, want 3 (open-breaker calls)", got)
	}
	if got := s.Counters["cluster.node1.ok"]; got != 0 {
		t.Errorf("node1 ok = %d, want 0", got)
	}
	if got := s.Counters["cluster.node0.ok"]; got != 5 {
		t.Errorf("node0 ok = %d, want 5", got)
	}
	if got := s.Gauges["cluster.node1.breaker_state"]; got != int64(BreakerOpen) {
		t.Errorf("node1 breaker_state gauge = %d, want open", got)
	}
	if got := s.Counters["cluster.node1.breaker.short_circuits"]; got != 3 {
		t.Errorf("breaker short_circuits = %d, want 3 (must equal cluster fastfail)", got)
	}
	if got := s.Counters["cluster.queries"]; got != 5 {
		t.Errorf("cluster queries = %d, want 5", got)
	}
	// Health() and telemetry must tell the same story.
	h := cl.Health()
	if int64(h[1].Failures) != s.Counters["cluster.node1.errors"]+s.Counters["cluster.node1.fastfail"] {
		t.Errorf("health failures %d != telemetry errors+fastfail %d",
			h[1].Failures, s.Counters["cluster.node1.errors"]+s.Counters["cluster.node1.fastfail"])
	}
}

// TestRetrievePolicyNilOnViolation pins the error-swallowing Retrieve
// behaviour under strict policies: nil results, never a partial list.
func TestRetrievePolicyNilOnViolation(t *testing.T) {
	m, c := chaosSystem(t)
	down := NewFaultTransport(&LocalTransport{Shard: NewShard(m, c.Train[2:])}, FaultConfig{PError: 1})
	cl := NewCluster(m, []Transport{
		&LocalTransport{Shard: NewShard(m, c.Train[:2])}, down,
	}).SetPolicy(RequireAll())
	defer cl.Close()
	if rs := cl.Retrieve(c.Test[0], 3); rs != nil {
		t.Errorf("require-all Retrieve returned %d results on partial failure", len(rs))
	}
}
