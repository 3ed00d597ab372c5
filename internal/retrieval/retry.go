package retrieval

import (
	"errors"
	"math/rand"
	"sync"
	"time"

	"duo/internal/telemetry"
	"duo/internal/trace"
)

// RetryConfig parameterizes a RetryTransport. The zero value selects the
// defaults noted per field.
type RetryConfig struct {
	// MaxAttempts is the total number of tries per call, including the
	// first (default 3).
	MaxAttempts int
	// BaseDelay is the backoff before the first retry (default 10ms).
	BaseDelay time.Duration
	// MaxDelay caps the exponential backoff (default 1s).
	MaxDelay time.Duration
	// Seed drives the deterministic jitter (default 1).
	Seed int64
	// Sleep is the delay function; tests inject a recorder to assert the
	// schedule without waiting (default time.Sleep).
	Sleep func(time.Duration)
}

func (c *RetryConfig) applyDefaults() {
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.BaseDelay <= 0 {
		c.BaseDelay = 10 * time.Millisecond
	}
	if c.MaxDelay <= 0 {
		c.MaxDelay = time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Sleep == nil {
		c.Sleep = time.Sleep //duolint:allow walltime injectable-sleep default; tests pin a recording stub
	}
}

// RetryTransport wraps a Transport with capped exponential backoff and
// deterministic jitter: attempt k (0-based) sleeps
// min(MaxDelay, BaseDelay·2^k)/2 · (1 + u) with u ~ U[0,1) drawn from a
// seeded RNG, so two runs with the same seed retry on an identical
// schedule — chaos tests stay reproducible.
//
// A breaker fast-fail (ErrBreakerOpen) is not retried: backing off against
// a breaker that will stay open for its whole cooldown only adds latency.
// Neither is a request the node refused as malformed (ErrBadRequest): the
// same frame cannot succeed on a second try. A load shed (ErrOverloaded) IS retried: the node is alive and refusing
// work to protect itself, and the backoff is exactly the pressure-release
// valve that lets the spike pass before the next attempt.
type RetryTransport struct {
	inner Transport
	cfg   RetryConfig

	mu      sync.Mutex
	rng     *rand.Rand
	retries int64

	// telRetries mirrors the retries counter into a telemetry registry.
	// Only genuine re-attempts count: a breaker fast-fail aborts the loop
	// before the retry bookkeeping, so it is never recorded here.
	// telOverloads counts attempts refused with ErrOverloaded (each such
	// attempt is retryable, so the counter can exceed the call count).
	telRetries   *telemetry.Counter
	telAttempts  *telemetry.Counter
	telOverloads *telemetry.Counter
}

var _ Transport = (*RetryTransport)(nil)

// NewRetryTransport wraps inner with retry-with-backoff semantics.
func NewRetryTransport(inner Transport, cfg RetryConfig) *RetryTransport {
	cfg.applyDefaults()
	return &RetryTransport{inner: inner, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// SetTelemetry wires the transport's retry counters into the registry
// under the given name prefix (e.g. "cluster.node0.retry"); nil disables.
func (t *RetryTransport) SetTelemetry(r *telemetry.Registry, prefix string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.telRetries = r.Counter(prefix + ".retries")
	t.telAttempts = r.Counter(prefix + ".attempts")
	t.telOverloads = r.Counter(prefix + ".overloads")
}

// Retries returns the total number of retry attempts performed (attempts
// beyond the first per call).
func (t *RetryTransport) Retries() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.retries
}

// backoff returns the jittered delay before retry k (0-based).
func (t *RetryTransport) backoff(k int) time.Duration {
	d := t.cfg.BaseDelay << uint(k)
	if d <= 0 || d > t.cfg.MaxDelay { // <<-overflow guards land on the cap
		d = t.cfg.MaxDelay
	}
	t.mu.Lock()
	u := t.rng.Float64()
	t.mu.Unlock()
	return time.Duration(float64(d) / 2 * (1 + u))
}

// Nearest implements Transport.
func (t *RetryTransport) Nearest(feat []float64, m int) ([]Result, error) {
	return t.NearestTraced(trace.Context{}, feat, m)
}

// NearestTraced implements TracedTransport and is the retry loop: every
// attempt, including retries, carries the same span context down the chain.
func (t *RetryTransport) NearestTraced(tc trace.Context, feat []float64, m int) ([]Result, error) {
	var lastErr error
	for k := 0; k < t.cfg.MaxAttempts; k++ {
		if k > 0 {
			t.mu.Lock()
			t.retries++
			t.mu.Unlock()
			t.telRetries.Inc()
			t.cfg.Sleep(t.backoff(k - 1))
		}
		t.telAttempts.Inc()
		rs, err := nearestVia(t.inner, tc, feat, m)
		if err == nil {
			return rs, nil
		}
		lastErr = err
		if errors.Is(err, ErrOverloaded) {
			t.telOverloads.Inc()
		}
		if errors.Is(err, ErrBreakerOpen) || errors.Is(err, ErrBadRequest) {
			break
		}
	}
	return nil, lastErr
}

// Stats implements StatsPuller by forwarding, outside the retry loop: a
// stats pull is an observability probe, not serving traffic, so a failed
// pull reports immediately instead of backing off.
func (t *RetryTransport) Stats(includeRings bool) (NodeStats, error) {
	return pullStats(t.inner, includeRings)
}

// Close implements Transport.
func (t *RetryTransport) Close() error { return t.inner.Close() }
