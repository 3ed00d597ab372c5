package main

import (
	"bufio"
	"encoding/json"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"duo/internal/models"
	"duo/internal/nn"
	"duo/internal/retrieval"
	"duo/internal/tensor"
	"duo/internal/video"
)

// The traced run records spans from outside the program: each layer's public
// interface is wrapped in a decorator defined here, and none of the program's
// own trace/telemetry instruments are switched on. The interfaces carry no
// context, so a decorator finds its parent span by what the call is working
// on: the tensor storage it was handed (client side) or the feature vector's
// bits (node side of the wire). That is exact as long as no two requests in
// flight share a query clip, which the load generators guarantee.

// span is one recorded interval. Parent and Request index the span list;
// a root has Parent −1 and is its own Request.
type span struct {
	Name    string `json:"name"`
	Start   int64  `json:"start"` // ns since the tracer's epoch
	End     int64  `json:"end"`
	Parent  int32  `json:"parent"`
	Request int32  `json:"request"`
	// feat is the embedding storage a forward pass bound to this span, so
	// the span can release the binding when it ends.
	feat *float64
}

// Layer span names; the per-layer metric names in manifest.go derive from them.
const (
	spanAttack    = "bench.attack"
	spanRequest   = "client.request"
	spanWait      = "client.wait"
	spanTransfer  = "core.sparsetransfer"
	spanQuery     = "core.sparsequery"
	spanVictimFwd = "models.victim_forward"
	spanSurrFwd   = "models.surrogate_forward"
	spanSurrBwd   = "models.surrogate_backward"
	spanEngine    = "retrieval.engine.retrieve"
	spanCluster   = "retrieval.cluster.retrieve"
	spanTCP       = "retrieval.tcp.nearest"
	spanShard     = "retrieval.shard.nearest"
	// orphanPrefix marks a span whose parent lookup failed.
	orphanPrefix = "bench.orphan:"
)

const (
	noSpan        = int32(-1)
	spanPrealloc  = 1 << 17 // a full-size traced run records ≈60k spans
	featKeyRotate = 7
)

// tracer keeps spans in memory. A nil tracer, or one that is off, makes
// every decorator a pass-through, so the same wiring serves the untraced
// reference window of a traced run.
type tracer struct {
	on    atomic.Bool
	epoch time.Time

	mu    sync.Mutex
	spans []span
	// byStorage maps the first element of a tensor a caller is working on
	// to the open span that owns that work.
	byStorage map[*float64]int32
	// byFeat maps (node, feature bits) to the client-side wire span whose
	// request the node is serving.
	byFeat []map[uint64]int32
	// stage is the open stage span of the single attack caller: the parent
	// of calls whose argument nobody bound (surrogate passes, candidate
	// queries).
	stage   int32
	orphans int
}

func newTracer(nodes int) *tracer {
	t := &tracer{
		epoch:     wallNow(),
		spans:     make([]span, 0, spanPrealloc),
		byStorage: make(map[*float64]int32),
		byFeat:    make([]map[uint64]int32, nodes),
		stage:     noSpan,
	}
	for i := range t.byFeat {
		t.byFeat[i] = make(map[uint64]int32)
	}
	return t
}

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

// begin opens a span under parent (noSpan opens a root) starting now.
func (t *tracer) begin(name string, parent int32) int32 {
	return t.beginAt(name, parent, wallNow())
}

// beginAt is begin with an explicit start, for spans that start at a
// request's due time rather than when the generator got to it.
func (t *tracer) beginAt(name string, parent int32, at time.Time) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.appendLocked(name, parent, at)
}

func (t *tracer) appendLocked(name string, parent int32, at time.Time) int32 {
	id := int32(len(t.spans))
	req := id
	if parent != noSpan {
		req = t.spans[parent].Request
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(at.Sub(t.epoch)), Parent: parent, Request: req})
	return id
}

// appendFoundLocked records a span whose parent was looked up. A failed
// lookup means the wiring lost a request: the span is kept as a root of its
// own under a telltale name and counted, and the run reports it as a failure.
func (t *tracer) appendFoundLocked(name string, parent int32, found bool, at time.Time) int32 {
	if !found || parent == noSpan {
		t.orphans++
		return t.appendLocked(orphanPrefix+name, noSpan, at)
	}
	return t.appendLocked(name, parent, at)
}

func (t *tracer) end(id int32) {
	now := int64(wallNow().Sub(t.epoch))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// setStage names the attack caller's open stage span (noSpan clears it).
func (t *tracer) setStage(id int32) {
	t.mu.Lock()
	t.stage = id
	t.mu.Unlock()
}

// bind makes id the owner of work on the tensor storage starting at p.
func (t *tracer) bind(p *float64, id int32) {
	t.mu.Lock()
	t.byStorage[p] = id
	t.mu.Unlock()
}

func (t *tracer) unbind(p *float64) {
	t.mu.Lock()
	delete(t.byStorage, p)
	t.mu.Unlock()
}

// beginOn opens a span for a call working on storage p: under p's owner
// when it has one, under the attack stage otherwise. It reports whether an
// owner was found.
func (t *tracer) beginOn(name string, p *float64) (id int32, owned bool) {
	now := wallNow()
	t.mu.Lock()
	defer t.mu.Unlock()
	parent, owned := t.byStorage[p]
	if !owned {
		parent = t.stage
	}
	return t.appendFoundLocked(name, parent, true, now), owned
}

func storage(x *tensor.Tensor) *float64 { return &x.Data()[0] }

// featKey folds a feature vector's exact bits into one word. gob carries
// float64 bit-exactly, so both ends of the wire compute the same key.
func featKey(feat []float64) uint64 {
	var k uint64
	for _, x := range feat {
		k = bits.RotateLeft64(k, featKeyRotate) ^ math.Float64bits(x)
	}
	return k
}

// tracedModel records one span per Forward (and per Backward when bwd is
// named). The victim's wrapper publishes: a forward pass on a clip some
// retrieve span owns hands that span the embedding's storage too, which is
// how the scatter to the nodes finds its request.
type tracedModel struct {
	models.Model
	tr        *tracer
	fwd, bwd  string
	publishes bool
}

func (m *tracedModel) Forward(x *tensor.Tensor) (*tensor.Tensor, nn.Cache) {
	if !m.tr.enabled() {
		return m.Model.Forward(x)
	}
	id, owned := m.tr.beginOn(m.fwd, storage(x))
	y, c := m.Model.Forward(x)
	m.tr.end(id)
	if m.publishes && owned {
		m.tr.mu.Lock()
		owner := m.tr.spans[id].Parent
		m.tr.byStorage[storage(y)] = owner
		m.tr.spans[owner].feat = storage(y)
		m.tr.mu.Unlock()
	}
	return y, c
}

func (m *tracedModel) Backward(c nn.Cache, grad *tensor.Tensor) *tensor.Tensor {
	if m.bwd == "" || !m.tr.enabled() {
		return m.Model.Backward(c, grad)
	}
	id, _ := m.tr.beginOn(m.bwd, storage(grad))
	g := m.Model.Backward(c, grad)
	m.tr.end(id)
	return g
}

// victimTap is the attack loop's and the load generator's view of the
// victim. Untraced it only times each call at the caller's boundary (lat is
// the single attack caller's stopwatch; the serve clients keep their own and
// leave it nil). Traced it also records one span per call.
//
// core.SparseQuery picks its query path by asserting the victim's optional
// interfaces, so the tap must offer exactly the ones the wrapped victim has:
// victimTap forwards Retrieve and RetrieveBatch (the Engine's surface),
// fallibleTap adds RetrieveErr (the Cluster's).
type victimTap struct {
	inner retrieval.BatchRetriever
	tr    *tracer
	name  string
	lat   *[]time.Duration
	calls int
}

var _ retrieval.BatchRetriever = (*victimTap)(nil)

// call is one victim call in progress.
type call struct {
	id    int32 // span, noSpan when untraced
	owner int32 // who owned the clip before this call took it over, or noSpan
	start time.Time
}

// open starts the span and the stopwatch of one victim call on v. The span
// takes over v's storage so the forward pass inside finds it as its parent.
func (p *victimTap) open(v *video.Video) call {
	c := call{id: noSpan, owner: noSpan}
	if p.tr.enabled() {
		var owned bool
		c.id, owned = p.tr.beginOn(p.name, storage(v.Data))
		p.tr.mu.Lock()
		if owned {
			c.owner = p.tr.spans[c.id].Parent
		}
		p.tr.byStorage[storage(v.Data)] = c.id
		p.tr.mu.Unlock()
	}
	c.start = wallNow()
	return c
}

// done closes what open started; the call answered n queries.
func (p *victimTap) done(c call, v *video.Video, n int) {
	if p.lat != nil {
		p.calls++
		per := wallNow().Sub(c.start) / time.Duration(n)
		for range n {
			*p.lat = append(*p.lat, per)
		}
	}
	if c.id == noSpan {
		return
	}
	p.tr.end(c.id)
	p.tr.mu.Lock()
	if c.owner != noSpan {
		p.tr.byStorage[storage(v.Data)] = c.owner
	} else {
		delete(p.tr.byStorage, storage(v.Data))
	}
	if f := p.tr.spans[c.id].feat; f != nil {
		delete(p.tr.byStorage, f)
	}
	p.tr.mu.Unlock()
}

func (p *victimTap) Retrieve(v *video.Video, m int) []retrieval.Result {
	c := p.open(v)
	rs := p.inner.Retrieve(v, m)
	p.done(c, v, 1)
	return rs
}

// RetrieveBatch is timed as one call and its span hangs off the first clip;
// the attack path only batches the two reference fetches of a round.
func (p *victimTap) RetrieveBatch(vs []*video.Video, m int) [][]retrieval.Result {
	if len(vs) == 0 {
		return p.inner.RetrieveBatch(vs, m)
	}
	c := p.open(vs[0])
	out := p.inner.RetrieveBatch(vs, m)
	p.done(c, vs[0], len(vs))
	return out
}

type fallibleTap struct {
	*victimTap
	inner retrieval.FallibleRetriever
}

var _ retrieval.FallibleRetriever = fallibleTap{}

func (p fallibleTap) RetrieveErr(v *video.Video, m int) ([]retrieval.Result, error) {
	c := p.open(v)
	rs, err := p.inner.RetrieveErr(v, m)
	p.done(c, v, 1)
	return rs, err
}

// tracedTransport records the client side of one node call and publishes the
// feature key so the node-side index span can find it.
type tracedTransport struct {
	retrieval.Transport
	tr     *tracer
	node   int
	failed atomic.Int64
}

func (t *tracedTransport) Nearest(feat []float64, m int) ([]retrieval.Result, error) {
	if !t.tr.enabled() || len(feat) == 0 {
		return t.Transport.Nearest(feat, m)
	}
	key := featKey(feat)
	now := wallNow()
	t.tr.mu.Lock()
	parent, ok := t.tr.byStorage[&feat[0]]
	id := t.tr.appendFoundLocked(spanTCP, parent, ok, now)
	t.tr.byFeat[t.node][key] = id
	t.tr.mu.Unlock()

	rs, err := t.Transport.Nearest(feat, m)
	t.tr.end(id)
	if err != nil {
		t.failed.Add(1)
	}
	t.tr.mu.Lock()
	delete(t.tr.byFeat[t.node], key)
	t.tr.mu.Unlock()
	return rs, err
}

// tracedIndex records the node-side scan of one request.
type tracedIndex struct {
	retrieval.GalleryIndex
	tr   *tracer
	node int
}

func (x *tracedIndex) Nearest(feat []float64, m int) []retrieval.Result {
	if !x.tr.enabled() {
		return x.GalleryIndex.Nearest(feat, m)
	}
	now := wallNow()
	x.tr.mu.Lock()
	parent, ok := x.tr.byFeat[x.node][featKey(feat)]
	id := x.tr.appendFoundLocked(spanShard, parent, ok, now)
	x.tr.mu.Unlock()
	rs := x.GalleryIndex.Nearest(feat, m)
	x.tr.end(id)
	return rs
}

// layerTime aggregates the spans of one name.
type layerTime struct {
	Calls      int
	Busy, Self time.Duration
}

// breakdown is the per-layer view of a finished trace.
type breakdown struct {
	Layers map[string]layerTime
	// Root is the summed duration of the request roots and RootSelf the part
	// of it no layer span covers: the breakdown's residual.
	Root, RootSelf time.Duration
}

// analyze computes each span's self time — its duration minus the part of
// that interval its children cover, overlapping children counted once — and
// sums calls, busy and self time per span name.
func analyze(spans []span) breakdown {
	children := make([][]int32, len(spans))
	for i, s := range spans {
		if s.Parent != noSpan {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	b := breakdown{Layers: make(map[string]layerTime)}
	for i, s := range spans {
		dur := time.Duration(s.End - s.Start)
		self := dur - covered(spans, children[i], s.Start, s.End)
		l := b.Layers[s.Name]
		l.Calls++
		l.Busy += dur
		l.Self += self
		b.Layers[s.Name] = l
		if s.Parent == noSpan && (s.Name == spanAttack || s.Name == spanRequest) {
			b.Root += dur
			b.RootSelf += self
		}
	}
	return b
}

// covered returns how much of [lo, hi] the given spans cover, as the length
// of the union of their intervals clipped to it.
func covered(spans []span, ids []int32, lo, hi int64) time.Duration {
	if len(ids) == 0 {
		return 0
	}
	sorted := append([]int32(nil), ids...)
	sort.Slice(sorted, func(a, b int) bool { return spans[sorted[a]].Start < spans[sorted[b]].Start })
	var total int64
	edge := lo
	for _, id := range sorted {
		s, e := max(spans[id].Start, edge), min(spans[id].End, hi)
		if e > s {
			total += e - s
			edge = e
		}
	}
	return time.Duration(total)
}

// writeJSONL writes one span per line.
func writeJSONL(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
