package retrieval

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"duo/internal/models"
	"duo/internal/parallel"
	"duo/internal/telemetry"
	"duo/internal/tensor"
	"duo/internal/trace"
	"duo/internal/video"
)

// Shard is one data node's slice of the gallery index: feature vectors with
// identity and label metadata. It answers nearest-neighbour queries over
// its slice only.
type Shard struct {
	g       gallery
	scratch sync.Pool
	tel     engineTel
}

// SetTelemetry wires the shard's scan instruments into the registry under
// the "shard" prefix (used by retrievald data nodes); nil disables.
func (s *Shard) SetTelemetry(r *telemetry.Registry) {
	s.tel = resolveEngineTel(r, "shard")
}

// NewShard builds a shard index for the given gallery slice under the
// extractor (indexing happens once, at ingest, exactly as in Fig. 1).
func NewShard(m models.Model, gallery []*video.Video) *Shard {
	return &Shard{g: embedGallery(m, gallery)}
}

// NewShardFromFeatures builds a shard index directly from pre-extracted
// feature rows (parallel slices), bypassing the extractor. Benchmarks and
// index-conversion tools use it to study scan behaviour on synthetic or
// re-loaded galleries. The shard views the rows' storage rather than
// copying it, so the tensors must not be written afterwards; slices of
// unequal length or rows of unequal dimension are a caller bug and panic.
func NewShardFromFeatures(ids []string, labels []int, feats []*tensor.Tensor) *Shard {
	return &Shard{g: mustGallery(galleryFromRows(ids, labels, feats))}
}

// GalleryIndex is the node-side serving surface: a model-free index that
// answers raw-feature top-m queries. The exact Shard and the
// product-quantized PQIndex both implement it, so a data node can serve
// either index format behind the same wire protocol.
type GalleryIndex interface {
	// Nearest returns the index's top-m entries for the query feature in
	// the service-wide (Dist, ID) order.
	Nearest(feat []float64, m int) []Result
	// Size returns the number of indexed entries.
	Size() int
	// Dim returns the feature dimension every query must have (0 for an
	// empty index, which has none). A NodeServer checks it before calling
	// Nearest, so a malformed frame is an error response, not a panic.
	Dim() int
}

var _ GalleryIndex = (*Shard)(nil)

// Size returns the number of indexed entries.
func (s *Shard) Size() int { return s.g.size() }

// Dim returns the feature dimension (0 for an empty shard).
func (s *Shard) Dim() int { return s.g.dim }

// Close releases the shard's backing storage (the memory mapping for a
// shard opened with OpenIndexFile; a no-op otherwise). A shard opened from
// a file must not be used after Close.
func (s *Shard) Close() error { return s.g.close() }

// Nearest returns the shard's top-m entries for the query feature. The
// scan is single-threaded (the cluster's node fan-out is the unit of
// parallelism) but uses the pooled top-m heap, so serving a query does not
// allocate an O(shard) temporary. A feat of the wrong dimension panics.
func (s *Shard) Nearest(feat []float64, m int) []Result {
	return s.tel.scan(s, feat, m, 1)
}

// nearest is the uninstrumented scan with up to `workers` shards; the list
// is bitwise-identical at every worker count.
func (s *Shard) nearest(feat []float64, m, workers int) []Result {
	return s.g.pooledTopM(&s.scratch, feat, m, workers)
}

// Transport carries nearest-neighbour calls to a data node. The in-memory
// implementation calls the shard directly; the TCP implementation sends
// length-prefixed frames (wire.go) to a remote node.
type Transport interface {
	// Nearest returns the node's top-m results for the query feature.
	Nearest(feat []float64, m int) ([]Result, error)
	// Close releases the transport's resources.
	Close() error
}

// TracedTransport is the optional Transport extension that carries a span
// context with the call. TCPTransport implements it by sending the
// context on the wire; the retry and breaker decorators implement it by
// forwarding, so a whole decorator chain stays traceable end to end.
type TracedTransport interface {
	NearestTraced(tc trace.Context, feat []float64, m int) ([]Result, error)
}

// retryReporter is implemented by transports that count retry attempts
// (RetryTransport, and decorators that forward to one).
type retryReporter interface {
	Retries() int64
}

// nearestVia dispatches to the transport's traced entry point when it has
// one and a span context is present, and to plain Nearest otherwise.
func nearestVia(t Transport, tc trace.Context, feat []float64, m int) ([]Result, error) {
	if tt, ok := t.(TracedTransport); ok && tc.Valid() {
		return tt.NearestTraced(tc, feat, m)
	}
	return t.Nearest(feat, m)
}

// LocalTransport serves a shard in-process.
type LocalTransport struct {
	Shard *Shard
	// Telemetry, when non-nil, is the registry this node reports from
	// Stats — typically the one its shard instruments write into.
	Telemetry *telemetry.Registry
}

var _ Transport = (*LocalTransport)(nil)
var _ StatsPuller = (*LocalTransport)(nil)

// Nearest implements Transport.
func (t *LocalTransport) Nearest(feat []float64, m int) ([]Result, error) {
	return t.Shard.Nearest(feat, m), nil
}

// Close implements Transport.
func (t *LocalTransport) Close() error { return nil }

// Stats implements StatsPuller: an in-process node always supports
// stats; without a registry it reports an empty snapshot (the merge
// identity), not an error — the node is reachable, just uninstrumented.
func (t *LocalTransport) Stats(includeRings bool) (NodeStats, error) {
	snap := t.Telemetry.Snapshot()
	if !includeRings {
		snap.Rings = map[string][]float64{}
	}
	return NodeStats{Snapshot: snap, Size: t.Shard.Size(), Addr: "local"}, nil
}

// Policy is the cluster's partial-result policy: what the coordinator does
// when some nodes fail a scatter/gather query. It trades availability
// against correctness of the merged top-m — a partial merge is still a
// valid list, but it can silently omit true global top-m entries from the
// failed shards, which corrupts rank-similarity signals like the attack
// objective 𝕋.
type Policy struct {
	kind   policyKind
	quorum int
}

type policyKind int

const (
	policyBestEffort policyKind = iota
	policyRequireAll
	policyQuorum
)

// BestEffort merges whatever the reachable nodes returned and reports the
// first node error alongside (maximum availability, possibly-partial
// top-m). This is the default and the pre-policy behaviour.
func BestEffort() Policy { return Policy{kind: policyBestEffort} }

// RequireAll returns an error unless every node answered (a correct global
// top-m or nothing).
func RequireAll() Policy { return Policy{kind: policyRequireAll} }

// Quorum returns the merged list only when at least q nodes answered, and
// an error otherwise.
func Quorum(q int) Policy { return Policy{kind: policyQuorum, quorum: q} }

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p.kind {
	case policyRequireAll:
		return "require-all"
	case policyQuorum:
		return fmt.Sprintf("quorum(%d)", p.quorum)
	}
	return "best-effort"
}

// NodeHealth is one node's entry in a Cluster.Health snapshot.
type NodeHealth struct {
	// Node is the node's index in the cluster.
	Node int
	// Successes and Failures count completed Nearest calls.
	Successes, Failures int64
	// Sheds counts calls refused with ErrOverloaded. A shed is neither a
	// success nor a failure: the node is alive but at capacity, so sheds
	// never feed ConsecutiveFailures (an overloaded node is not unhealthy,
	// it is protecting itself).
	Sheds int64
	// ConsecutiveFailures counts failures since the last success.
	ConsecutiveFailures int
	// LastError is the most recent failure message ("" if none).
	LastError string
	// Breaker is the node's circuit-breaker state, when its transport has
	// one ("" otherwise).
	Breaker string
}

// Healthy reports whether the node's last call succeeded and no breaker is
// holding it open.
func (h NodeHealth) Healthy() bool {
	return h.ConsecutiveFailures == 0 && (h.Breaker == "" || h.Breaker == BreakerClosed.String())
}

// breakerReporter is implemented by transports that expose a circuit
// breaker (BreakerTransport); the cluster surfaces its state in Health.
type breakerReporter interface {
	State() BreakerState
}

// nodeStats is the cluster's per-node health accounting.
type nodeStats struct {
	successes, failures int64
	sheds               int64
	consecutive         int
	lastErr             string
}

// clusterNodeTel is one node's telemetry instrument set: request/error
// counters plus a breaker-state gauge mirroring Health().
type clusterNodeTel struct {
	// ok and errs count completed Nearest calls by outcome. Fast-fails
	// (ErrBreakerOpen) are counted in fastFail INSTEAD of errs: they never
	// reached the node, so folding them into errs would double-count the
	// underlying fault that tripped the breaker. Sheds (ErrOverloaded) are
	// likewise counted in shed INSTEAD of errs: the node is alive, just at
	// capacity, and conflating load with failure would make saturation look
	// like an outage in /metrics.json.
	ok, errs, fastFail, shed *telemetry.Counter
	// breaker mirrors the node's circuit-breaker state as an integer gauge
	// (BreakerClosed=0, BreakerOpen=1, BreakerHalfOpen=2), -1 when the
	// transport has no breaker.
	breaker *telemetry.Gauge
}

// Cluster is the distributed retrieval coordinator of Fig. 1: it extracts
// the query's features once, scatters the feature vector to every data
// node concurrently, and merges the nodes' top-m lists into a global top-m.
type Cluster struct {
	model   models.Model
	nodes   []Transport
	queries atomic.Int64

	mu     sync.Mutex
	policy Policy
	stats  []nodeStats

	tel      engineTel
	gatherNs *telemetry.Histogram
	nodeTel  []clusterNodeTel
	reg      *telemetry.Registry // for FleetSnapshot's coordinator section
	tracer   *trace.Tracer
}

var _ FallibleRetriever = (*Cluster)(nil)
var _ BatchRetriever = (*Cluster)(nil)
var _ TracedRetriever = (*Cluster)(nil)

// NewCluster builds a coordinator over the given node transports with the
// BestEffort partial-result policy.
func NewCluster(m models.Model, nodes []Transport) *Cluster {
	return &Cluster{model: m, nodes: nodes, stats: make([]nodeStats, len(nodes))}
}

// SetPolicy selects the partial-result policy and returns the cluster for
// chaining.
func (c *Cluster) SetPolicy(p Policy) *Cluster {
	c.mu.Lock()
	defer c.mu.Unlock()
	if p.kind == policyQuorum && (p.quorum < 1 || p.quorum > len(c.nodes)) {
		// An unsatisfiable or trivial quorum is a configuration bug; clamp
		// into range rather than making every query fail.
		q := p.quorum
		if q < 1 {
			q = 1
		}
		if q > len(c.nodes) {
			q = len(c.nodes)
		}
		p.quorum = q
	}
	c.policy = p
	return c
}

// Policy returns the active partial-result policy.
func (c *Cluster) Policy() Policy {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.policy
}

// SetTelemetry wires the cluster's instruments into the registry: the
// coordinator's query counters under "cluster", the scatter/gather latency
// histogram, and per-node request/error/fast-fail counters plus a
// breaker-state gauge under "cluster.nodeI". A nil registry disables
// instrumentation. The per-node counters are the telemetry mirror of
// Health() — chaos tests assert the two agree with the injected fault
// schedule exactly.
func (c *Cluster) SetTelemetry(r *telemetry.Registry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tel = resolveEngineTel(r, "cluster")
	c.reg = r
	c.gatherNs = r.Latency("cluster.gather_ns")
	c.nodeTel = make([]clusterNodeTel, len(c.nodes))
	for i := range c.nodes {
		prefix := fmt.Sprintf("cluster.node%d", i)
		c.nodeTel[i] = clusterNodeTel{
			ok:       r.Counter(prefix + ".ok"),
			errs:     r.Counter(prefix + ".errors"),
			fastFail: r.Counter(prefix + ".fastfail"),
			shed:     r.Counter(prefix + ".shed"),
			breaker:  r.Gauge(prefix + ".breaker_state"),
		}
		c.nodeTel[i].breaker.Set(-1)
		if br, ok := c.nodes[i].(breakerReporter); ok {
			c.nodeTel[i].breaker.Set(int64(br.State()))
		}
	}
}

// SetTrace wires the span tracer the cluster records node spans into. The
// tracer must be the one whose contexts arrive via RetrieveTraced (the
// attack run's tracer — duo.System wires both from one place); nil
// disables node spans. Returns the cluster for chaining.
func (c *Cluster) SetTrace(t *trace.Tracer) *Cluster {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tracer = t
	return c
}

// Health returns a per-node health snapshot: call counters, consecutive
// failures, the last error, and circuit-breaker state when the transport
// exposes one.
func (c *Cluster) Health() []NodeHealth {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]NodeHealth, len(c.nodes))
	for i, st := range c.stats {
		out[i] = NodeHealth{
			Node:                i,
			Successes:           st.successes,
			Failures:            st.failures,
			Sheds:               st.sheds,
			ConsecutiveFailures: st.consecutive,
			LastError:           st.lastErr,
		}
		if br, ok := c.nodes[i].(breakerReporter); ok {
			out[i].Breaker = br.State().String()
		}
	}
	return out
}

// NewLocalCluster shards the gallery round-robin across n in-process nodes.
func NewLocalCluster(m models.Model, gallery []*video.Video, n int) *Cluster {
	if n < 1 {
		n = 1
	}
	shards := make([][]*video.Video, n)
	for i, v := range gallery {
		shards[i%n] = append(shards[i%n], v)
	}
	nodes := make([]Transport, n)
	for i := range nodes {
		nodes[i] = &LocalTransport{Shard: NewShard(m, shards[i])}
	}
	return NewCluster(m, nodes)
}

// Nodes returns the number of data nodes.
func (c *Cluster) Nodes() int { return len(c.nodes) }

// QueryCount returns the number of Retrieve calls served.
func (c *Cluster) QueryCount() int64 { return c.queries.Load() }

// Retrieve implements Retriever. Under the default BestEffort policy node
// failures degrade gracefully: results from reachable nodes are still
// merged (partial availability rather than total failure, as a production
// system would behave). Under RequireAll/Quorum a policy violation yields
// nil results; failure-aware callers should use RetrieveErr.
func (c *Cluster) Retrieve(v *video.Video, m int) []Result {
	rs, _ := c.RetrieveErr(v, m)
	return rs
}

// RetrieveErr is Retrieve with error reporting, subject to the cluster's
// partial-result policy:
//
//   - BestEffort: merged results from the reachable nodes plus the first
//     node error encountered, if any.
//   - RequireAll: (nil, error) unless every node answered.
//   - Quorum(q): (nil, error) unless at least q nodes answered.
func (c *Cluster) RetrieveErr(v *video.Video, m int) ([]Result, error) {
	return c.retrieve(trace.Context{}, v, m)
}

// RetrieveTraced is RetrieveErr with a span context: one node span per
// data node is recorded under it, attributed with the node index, the
// outcome (ok / fastfail / shed / error), the result count, and a best-effort
// retry delta when the transport counts retries. The context also rides
// the wire to TCP nodes, whose server-side spans parent under the node
// span. Callers bill this exactly like RetrieveErr.
func (c *Cluster) RetrieveTraced(tc trace.Context, v *video.Video, m int) ([]Result, error) {
	return c.retrieve(tc, v, m)
}

func (c *Cluster) retrieve(tc trace.Context, v *video.Video, m int) ([]Result, error) {
	c.queries.Add(1)
	c.tel.queries.Inc()
	c.tel.topM.Observe(float64(m))
	feat := models.Embed(c.model, v).Data()

	// Ordered-concurrency contract (see package trace): node spans are
	// started here, sequentially, before the fan-out; workers only read
	// their own span's context; attributes and End happen sequentially in
	// the merge loop. The exported tree is therefore identical at every
	// worker count and interleaving. Retry deltas are read around the
	// call; under concurrent RetrieveBatch scatters they are best-effort
	// (another scatter's retries may land in this window).
	var spans []*trace.Span
	var retriesBefore []int64
	if c.tracer != nil && tc.Valid() {
		spans = make([]*trace.Span, len(c.nodes))
		retriesBefore = make([]int64, len(c.nodes))
		for i, node := range c.nodes {
			spans[i] = c.tracer.StartCtx(tc, "node")
			if rr, isRR := node.(retryReporter); isRR {
				retriesBefore[i] = rr.Retries()
			}
		}
	}

	type reply struct {
		rs  []Result
		err error
	}
	replies := make([]reply, len(c.nodes))
	sw := c.gatherNs.Start()
	var wg sync.WaitGroup
	for i, node := range c.nodes {
		wg.Add(1)
		go func(i int, node Transport) {
			defer wg.Done()
			var nctx trace.Context
			if spans != nil {
				nctx = spans[i].Ctx()
			}
			rs, err := nearestVia(node, nctx, feat, m)
			replies[i] = reply{rs: rs, err: err}
		}(i, node)
	}
	wg.Wait()
	sw.Stop()

	var firstErr error
	var all []Result
	ok, shed := 0, 0
	c.mu.Lock()
	policy := c.policy
	for i, r := range replies {
		st := &c.stats[i]
		var nt clusterNodeTel
		if c.nodeTel != nil {
			nt = c.nodeTel[i]
			if br, isBr := c.nodes[i].(breakerReporter); isBr {
				nt.breaker.Set(int64(br.State()))
			}
		}
		var sp *trace.Span
		if spans != nil {
			sp = spans[i]
			sp.SetInt("node", int64(i))
			sp.SetInt("results", int64(len(r.rs)))
			if rr, isRR := c.nodes[i].(retryReporter); isRR {
				if d := rr.Retries() - retriesBefore[i]; d > 0 {
					sp.SetInt("retries", d)
				}
			}
		}
		if r.err != nil {
			st.lastErr = r.err.Error()
			if errors.Is(r.err, ErrOverloaded) {
				// A shed is load, not death: it never feeds the failure or
				// consecutive-failure counters, so Health keeps reporting an
				// overloaded-but-alive node as healthy.
				st.sheds++
				shed++
				nt.shed.Inc()
				sp.SetStr("outcome", "shed")
			} else {
				st.failures++
				st.consecutive++
				if errors.Is(r.err, ErrBreakerOpen) {
					nt.fastFail.Inc()
					sp.SetStr("outcome", "fastfail")
				} else {
					nt.errs.Inc()
					sp.SetStr("outcome", "error")
				}
			}
			sp.End()
			if firstErr == nil {
				firstErr = fmt.Errorf("retrieval: node %d: %w", i, r.err)
			}
			continue
		}
		st.successes++
		st.consecutive = 0
		nt.ok.Inc()
		sp.SetStr("outcome", "ok")
		sp.End()
		ok++
		all = append(all, r.rs...)
	}
	c.mu.Unlock()

	switch policy.kind {
	case policyRequireAll:
		if ok < len(c.nodes) {
			return nil, fmt.Errorf("retrieval: require-all: %d/%d nodes answered (%d shed): %w",
				ok, len(c.nodes), shed, firstErr)
		}
	case policyQuorum:
		if ok < policy.quorum {
			return nil, fmt.Errorf("retrieval: quorum: %d/%d nodes answered (%d shed), need %d: %w",
				ok, len(c.nodes), shed, policy.quorum, firstErr)
		}
		// Quorum met: the merge is authoritative by policy choice.
		firstErr = nil
	}
	merged := mergeTopM(all, m)
	return merged, firstErr
}

// RetrieveBatch implements BatchRetriever: independent queries fan out
// concurrently, each running its own scatter/gather under the active
// partial-result policy and billing QueryCount once. Transports already
// serialize per-connection access, so concurrent scatters are safe.
func (c *Cluster) RetrieveBatch(vs []*video.Video, m int) [][]Result {
	c.tel.batchSize.Observe(float64(len(vs)))
	out := make([][]Result, len(vs))
	parallel.For(len(vs), func(_, start, end int) {
		for i := start; i < end; i++ {
			out[i] = c.Retrieve(vs[i], m)
		}
	})
	return out
}

// Close closes every node transport, returning the first error.
func (c *Cluster) Close() error {
	var first error
	for _, n := range c.nodes {
		if err := n.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// mergeTopM merges per-node result lists into a global ascending top-m,
// with the same (distance, ID) ordering as the single-node engine. Ties
// must be broken BEFORE truncating to m: a tie straddling the cut-off
// would otherwise keep whichever entry its node happened to deliver first,
// diverging from the engine's list.
func mergeTopM(all []Result, m int) []Result {
	out := make([]Result, len(all))
	copy(out, all)
	sort.Slice(out, func(a, b int) bool { return resultLess(out[a], out[b]) })
	if m > len(out) {
		m = len(out)
	}
	if m < 0 {
		m = 0
	}
	return out[:m]
}
