// Package retrieval implements the DNN-based video retrieval system of
// Fig. 1: a deep feature extractor, an indexed gallery, top-m retrieval by
// L2 feature distance, and a distributed variant that shards the gallery
// across data nodes behind a scatter/gather coordinator.
package retrieval

import (
	"fmt"
	"sync/atomic"

	"duo/internal/metrics"
	"duo/internal/models"
	"duo/internal/parallel"
	"duo/internal/telemetry"
	"duo/internal/trace"
	"duo/internal/video"
)

// engineTel holds an engine's resolved telemetry instruments. The zero
// value (all nil) is the disabled state: every record is a no-op with zero
// allocations and no clock reads, so the Retrieve hot path costs nothing
// when telemetry is off (see the zero-alloc test in telemetry_test.go).
type engineTel struct {
	// queries counts Retrieve/RetrieveBatch queries served.
	queries *telemetry.Counter
	// scanNs times the gallery scan (embed excluded) per query.
	scanNs *telemetry.Histogram
	// scanned counts gallery entries scored across all queries.
	scanned *telemetry.Counter
	// batchSize records RetrieveBatch fan-out widths.
	batchSize *telemetry.Histogram
	// topM records the requested list length per query.
	topM *telemetry.Histogram
}

// resolveEngineTel resolves the named instruments under a prefix; a nil
// registry yields the all-nil (disabled) instrument set.
func resolveEngineTel(r *telemetry.Registry, prefix string) engineTel {
	return engineTel{
		queries:   r.Counter(prefix + ".queries"),
		scanNs:    r.Latency(prefix + ".scan_ns"),
		scanned:   r.Counter(prefix + ".entries_scanned"),
		batchSize: r.Histogram(prefix+".batch_size", []float64{1, 2, 4, 8, 16, 32, 64, 128}),
		topM:      r.Histogram(prefix+".top_m", []float64{1, 5, 10, 20, 50, 100}),
	}
}

// scan runs one instrumented index query. With telemetry disabled (nil
// instruments) it is bit- and allocation-identical to calling ix.nearest
// directly — the zero-overhead contract the disabled-telemetry benchmark
// pins down.
func (t *engineTel) scan(ix index, feat []float64, m, workers int) []Result {
	t.queries.Inc()
	t.topM.Observe(float64(m))
	sw := t.scanNs.Start()
	rs := ix.nearest(feat, m, workers)
	sw.Stop()
	t.scanned.Add(int64(ix.Size()))
	return rs
}

// Result is one retrieved gallery entry.
type Result struct {
	// ID is the gallery video's identifier.
	ID string
	// Label is the gallery video's category (used for mAP ground truth).
	Label int
	// Dist is the L2 feature distance to the query.
	Dist float64
}

// Retriever answers top-m similarity queries; it is the black-box interface
// R^m(·) the attacks interact with.
type Retriever interface {
	// Retrieve returns the m gallery entries nearest to v in feature
	// space, in ascending distance order.
	Retrieve(v *video.Video, m int) []Result
}

// BatchRetriever is a Retriever that can serve several independent queries
// in one call, fanning them out across workers. The answers are
// bitwise-identical to issuing each query through Retrieve, and every
// query is billed to QueryCount individually — batching buys throughput,
// never budget.
type BatchRetriever interface {
	Retriever
	// RetrieveBatch returns one top-m list per input video, with
	// out[i] == Retrieve(vs[i], m).
	RetrieveBatch(vs []*video.Video, m int) [][]Result
}

// FallibleRetriever is a Retriever whose queries can fail (a distributed
// service with unreachable nodes, per its partial-result policy).
// Failure-aware callers — the attack loop in particular — should prefer
// RetrieveErr over Retrieve so a degraded answer is never mistaken for a
// complete one.
type FallibleRetriever interface {
	Retriever
	// RetrieveErr is Retrieve with error reporting; a nil error means the
	// result list satisfies the service's completeness policy.
	RetrieveErr(v *video.Video, m int) ([]Result, error)
}

// TracedRetriever is a FallibleRetriever that can attribute one query to a
// caller's span: the Cluster implements it by recording per-node child
// spans under tc and forwarding the context over the wire to TCP nodes.
// Results and billing are identical to RetrieveErr — tracing is write-only.
type TracedRetriever interface {
	FallibleRetriever
	// RetrieveTraced is RetrieveErr under a span context.
	RetrieveTraced(tc trace.Context, v *video.Video, m int) ([]Result, error)
}

// Query asks r one top-m question through the richest entry point it has:
// RetrieveTraced when r is a TracedRetriever and tc is valid, RetrieveErr
// when it can fail, plain Retrieve (which cannot, so a nil error) otherwise.
// It is the only place that knows the ladder of optional retriever
// interfaces; the attack loop reaches its victim through it and nothing
// else.
func Query(r Retriever, tc trace.Context, v *video.Video, m int) ([]Result, error) {
	switch r := r.(type) {
	case TracedRetriever:
		if tc.Valid() {
			return r.RetrieveTraced(tc, v, m)
		}
		return r.RetrieveErr(v, m)
	case FallibleRetriever:
		return r.RetrieveErr(v, m)
	}
	return r.Retrieve(v, m), nil
}

// index is the model-free half of an Engine: a gallery that answers
// raw-feature top-m queries with up to `workers` scan shards. The exact
// Shard and the product-quantized PQIndex implement it.
type index interface {
	nearest(feat []float64, m, workers int) []Result
	Size() int
	Dim() int
}

// Engine is a single-node retrieval system: one feature extractor plus one
// in-memory gallery index, exact or product-quantized. Its black-box
// interface is the same over either, so every attack and evaluation in the
// repository runs against both unchanged.
type Engine struct {
	model   models.Model
	idx     index
	queries atomic.Int64
	tel     engineTel
}

var _ Retriever = (*Engine)(nil)
var _ BatchRetriever = (*Engine)(nil)

// NewEngine indexes the gallery under the given extractor for exact scans.
func NewEngine(m models.Model, gallery []*video.Video) *Engine {
	return &Engine{model: m, idx: NewShard(m, gallery)}
}

// NewEngineFromIndex attaches the query-side extractor to a built or loaded
// index (a *Shard or a *PQIndex). The model must be the one that produced
// the index's features, or retrieval distances are meaningless; the
// dimension check catches the obvious mismatch.
func NewEngineFromIndex(m models.Model, idx index) (*Engine, error) {
	if idx.Size() > 0 && m.FeatureDim() != idx.Dim() {
		return nil, fmt.Errorf("retrieval: model dim %d does not match index dim %d", m.FeatureDim(), idx.Dim())
	}
	return &Engine{model: m, idx: idx}, nil
}

// Model exposes the engine's feature extractor (white-box access used only
// by defenses and evaluation, never by the black-box attacks).
func (e *Engine) Model() models.Model { return e.model }

// GallerySize returns the number of indexed videos.
func (e *Engine) GallerySize() int { return e.idx.Size() }

// SetTelemetry wires the engine's instruments into the registry under the
// "retrieval" prefix; a nil registry disables instrumentation (the
// default). Telemetry is write-only — enabling it cannot change any
// retrieval result.
func (e *Engine) SetTelemetry(r *telemetry.Registry) {
	e.tel = resolveEngineTel(r, "retrieval")
}

// QueryCount returns the number of Retrieve calls served; attacks use it to
// account for query budgets.
func (e *Engine) QueryCount() int64 { return e.queries.Load() }

// ResetQueryCount zeroes the query counter.
func (e *Engine) ResetQueryCount() { e.queries.Store(0) }

// Retrieve implements Retriever. The gallery scan is sharded across
// parallel.Workers() with a deterministic top-m merge, so the list is
// bitwise-identical at every worker count.
func (e *Engine) Retrieve(v *video.Video, m int) []Result {
	e.queries.Add(1)
	feat := models.Embed(e.model, v)
	return e.tel.scan(e.idx, feat.Data(), m, parallel.Workers())
}

// RetrieveBatch implements BatchRetriever: queries fan out across workers
// (each scanning single-threaded, so the batch is the unit of parallelism)
// and each one is billed to QueryCount.
func (e *Engine) RetrieveBatch(vs []*video.Video, m int) [][]Result {
	e.queries.Add(int64(len(vs)))
	e.tel.batchSize.Observe(float64(len(vs)))
	out := make([][]Result, len(vs))
	parallel.For(len(vs), func(_, start, end int) {
		for i := start; i < end; i++ {
			out[i] = e.tel.scan(e.idx, models.Embed(e.model, vs[i]).Data(), m, 1)
		}
	})
	return out
}

// IDs extracts the ID sequence of a result list (the R^m(v) lists consumed
// by the attack objective).
func IDs(rs []Result) []string {
	return IDsInto(nil, rs)
}

// IDsInto is IDs writing into dst (grown only when its capacity is short),
// for per-query callers that keep a reusable buffer — the attack oracle
// projects every retrieval to an ID list, and a fresh slice per query
// would dominate its steady-state allocations.
func IDsInto(dst []string, rs []Result) []string {
	if cap(dst) < len(rs) || dst == nil {
		dst = make([]string, len(rs))
	}
	dst = dst[:len(rs)]
	for i, r := range rs {
		dst[i] = r.ID
	}
	return dst
}

// EvaluateMAP computes the paper's mAP over the given queries: an item is
// correct when its label matches the query's.
func EvaluateMAP(r Retriever, queries []*video.Video, m int) float64 {
	return Evaluate(r, queries, m).MAP
}

// Quality bundles ranking diagnostics over a query set.
type Quality struct {
	// MAP is the paper's mean average precision (§V-A).
	MAP float64
	// RecallAt1 is the fraction of queries whose top result is correct.
	RecallAt1 float64
	// MRR is the mean reciprocal rank of the first correct result.
	MRR float64
}

// Evaluate computes retrieval quality over the queries; an item is correct
// when its label matches the query's. Retrievers that support batching
// serve the query set with a parallel fan-out; the metrics are identical
// either way.
func Evaluate(r Retriever, queries []*video.Video, m int) Quality {
	var lists [][]Result
	if br, ok := r.(BatchRetriever); ok {
		lists = br.RetrieveBatch(queries, m)
	} else {
		lists = make([][]Result, len(queries))
		for i, q := range queries {
			lists[i] = r.Retrieve(q, m)
		}
	}
	rel := make([][]bool, 0, len(queries))
	for i, q := range queries {
		rs := lists[i]
		row := make([]bool, len(rs))
		for j, res := range rs {
			row[j] = res.Label == q.Label
		}
		rel = append(rel, row)
	}
	return Quality{
		MAP:       metrics.MAP(rel),
		RecallAt1: metrics.RecallAtK(rel, 1),
		MRR:       metrics.MRR(rel),
	}
}

// RecallAtM measures the fraction of the exact retriever's top-m an
// approximate one also returns, averaged over the queries — the standard
// ANN recall diagnostic.
func RecallAtM(exact, approx Retriever, queries []*video.Video, m int) float64 {
	if len(queries) == 0 || m <= 0 {
		return 0
	}
	total := 0.0
	for _, q := range queries {
		want := map[string]bool{}
		for _, r := range exact.Retrieve(q, m) {
			want[r.ID] = true
		}
		if len(want) == 0 {
			continue
		}
		hit := 0
		for _, r := range approx.Retrieve(q, m) {
			if want[r.ID] {
				hit++
			}
		}
		total += float64(hit) / float64(len(want))
	}
	return total / float64(len(queries))
}
