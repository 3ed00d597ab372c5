package retrieval

import (
	"errors"
	"sync"
	"time"

	"duo/internal/telemetry"
	"duo/internal/trace"
)

// ErrBreakerOpen is returned by a BreakerTransport that is failing fast
// because its node is presumed dead. Callers (and the cluster's partial
// result policies) can treat it like any other node failure, but it costs
// no network round-trip.
var ErrBreakerOpen = errors.New("retrieval: circuit breaker open")

// BreakerState is the classic three-state circuit-breaker automaton.
type BreakerState int32

const (
	// BreakerClosed: calls flow through; consecutive failures are counted.
	BreakerClosed BreakerState = iota
	// BreakerOpen: calls fail fast until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen: one probe call is in flight; its outcome decides
	// between closing and re-opening.
	BreakerHalfOpen
)

// String implements fmt.Stringer.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// BreakerConfig parameterizes a BreakerTransport. The zero value selects
// the defaults noted per field.
type BreakerConfig struct {
	// FailureThreshold is the number of consecutive failures that trips
	// the breaker from closed to open (default 5).
	FailureThreshold int
	// Cooldown is how long the breaker stays open before admitting a
	// half-open probe (default 1s).
	Cooldown time.Duration
	// Now is the clock; tests inject a fake for deterministic state
	// transitions (default time.Now).
	Now func() time.Time
}

func (c *BreakerConfig) applyDefaults() {
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 5
	}
	if c.Cooldown <= 0 {
		c.Cooldown = time.Second
	}
	if c.Now == nil {
		c.Now = time.Now //duolint:allow walltime injectable-clock default; tests pin a fake clock
	}
}

// BreakerTransport wraps a Transport with a per-node circuit breaker so a
// persistently dead node stops stalling every scatter/gather query: after
// FailureThreshold consecutive failures the breaker opens and calls fail
// fast; after Cooldown a single probe is let through (half-open) and its
// outcome re-closes or re-opens the breaker.
//
// A load shed (ErrOverloaded) is treated as proof of liveness, exactly
// like a success: the node answered — cheaply, with a refusal — so it is
// not dead, and the breaker guards deadness, not load. Tripping on sheds
// would convert a transient load spike into a self-inflicted outage
// (fast-failing an alive node for a whole cooldown). Backing off under
// overload is RetryTransport's job, not the breaker's.
type BreakerTransport struct {
	inner Transport
	cfg   BreakerConfig

	mu           sync.Mutex
	state        BreakerState
	consecutive  int
	openedAt     time.Time
	probing      bool
	shortCircuit int64

	// telShortCircuit mirrors shortCircuit; telState tracks the state the
	// automaton last settled in (not the clock-recomputed State() view);
	// telOpened counts closed/half-open → open transitions.
	telShortCircuit *telemetry.Counter
	telState        *telemetry.Gauge
	telOpened       *telemetry.Counter
}

var _ Transport = (*BreakerTransport)(nil)

// NewBreakerTransport wraps inner with a circuit breaker.
func NewBreakerTransport(inner Transport, cfg BreakerConfig) *BreakerTransport {
	cfg.applyDefaults()
	return &BreakerTransport{inner: inner, cfg: cfg}
}

// SetTelemetry wires the breaker's instruments into the registry under the
// given name prefix (e.g. "cluster.node0.breaker"); nil disables.
func (b *BreakerTransport) SetTelemetry(r *telemetry.Registry, prefix string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.telShortCircuit = r.Counter(prefix + ".short_circuits")
	b.telOpened = r.Counter(prefix + ".opened")
	b.telState = r.Gauge(prefix + ".state")
	b.telState.Set(int64(b.state))
}

// State returns the breaker's current state (recomputing open → half-open
// eligibility against the clock).
func (b *BreakerTransport) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerOpen && b.cfg.Now().Sub(b.openedAt) >= b.cfg.Cooldown {
		return BreakerHalfOpen
	}
	return b.state
}

// ShortCircuits returns how many calls failed fast without reaching the
// node.
func (b *BreakerTransport) ShortCircuits() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.shortCircuit
}

// admit decides whether a call may proceed; it reports whether the call is
// the half-open probe.
func (b *BreakerTransport) admit() (allowed, probe bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true, false
	case BreakerOpen:
		if b.cfg.Now().Sub(b.openedAt) < b.cfg.Cooldown {
			b.shortCircuit++
			b.telShortCircuit.Inc()
			return false, false
		}
		b.state = BreakerHalfOpen
		b.telState.Set(int64(b.state))
		b.probing = true
		return true, true
	case BreakerHalfOpen:
		if b.probing {
			// A probe is already in flight; don't pile on a maybe-dead node.
			b.shortCircuit++
			b.telShortCircuit.Inc()
			return false, false
		}
		b.probing = true
		return true, true
	}
	return false, false
}

// report records a call outcome and drives the state machine.
func (b *BreakerTransport) report(probe bool, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if probe {
		b.probing = false
	}
	if err == nil || errors.Is(err, ErrOverloaded) || errors.Is(err, ErrBadRequest) {
		// A shed or a refused-as-malformed response proves the node alive,
		// which is all the breaker cares about: it resets the automaton like
		// a success (a half-open probe answered with ErrOverloaded re-closes
		// the breaker).
		b.state = BreakerClosed
		b.telState.Set(int64(b.state))
		b.consecutive = 0
		return
	}
	if b.state == BreakerHalfOpen {
		// Failed probe: back to open for another cooldown.
		b.state = BreakerOpen
		b.telState.Set(int64(b.state))
		b.telOpened.Inc()
		b.openedAt = b.cfg.Now()
		return
	}
	b.consecutive++
	if b.consecutive >= b.cfg.FailureThreshold {
		b.state = BreakerOpen
		b.telState.Set(int64(b.state))
		b.telOpened.Inc()
		b.openedAt = b.cfg.Now()
	}
}

// Nearest implements Transport.
func (b *BreakerTransport) Nearest(feat []float64, m int) ([]Result, error) {
	return b.NearestTraced(trace.Context{}, feat, m)
}

// NearestTraced implements TracedTransport and runs the call through the
// breaker automaton; a fast-fail never reaches the inner transport, so no
// context crosses the wire for it.
func (b *BreakerTransport) NearestTraced(tc trace.Context, feat []float64, m int) ([]Result, error) {
	allowed, probe := b.admit()
	if !allowed {
		return nil, ErrBreakerOpen
	}
	rs, err := nearestVia(b.inner, tc, feat, m)
	b.report(probe, err)
	return rs, err
}

// Retries forwards the inner chain's retry count when it has one, so the
// cluster's per-node retry attribution sees through the usual
// breaker-outside-retry stacking ("0" when nothing underneath counts).
func (b *BreakerTransport) Retries() int64 {
	if rr, ok := b.inner.(retryReporter); ok {
		return rr.Retries()
	}
	return 0
}

// Stats implements StatsPuller by forwarding around the breaker: a stats
// pull is an observability probe, never gated or counted by the
// automaton, so the fleet view still reads a node the breaker holds open
// — which is exactly when an operator wants to see it.
func (b *BreakerTransport) Stats(includeRings bool) (NodeStats, error) {
	return pullStats(b.inner, includeRings)
}

// Close implements Transport.
func (b *BreakerTransport) Close() error { return b.inner.Close() }
