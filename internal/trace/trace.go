// Package trace is the attack pipeline's deterministic span tracer: a
// write-only tree of named spans — attack.run → round → {sparsetransfer
// stages, sparsequery steps} → retrieve → node — with typed attributes
// (queries billed, 𝕋 values, candidate pixels, node outcomes) that the
// cmd/duotrace CLI rolls up into per-stage/per-round cost attributions.
//
// Three properties are load-bearing and tested:
//
//   - Nil safety. A nil *Tracer hands out nil *Spans, and every method on
//     a nil span is a no-op that performs no allocation. Components call
//     Start/SetInt/End unconditionally on the hot path; disabled tracing
//     costs zero allocations (pinned by the zero-alloc CI step, exactly
//     like the nil telemetry Registry).
//
//   - Determinism. The default clock is a logical step counter: every
//     Start and End consumes one tick, so a trace contains no wall-clock
//     reading and two identical runs produce bitwise-identical JSONL.
//     Callers that want real durations inject a clock with SetClock (and
//     own the resulting nondeterminism). Tracing is strictly write-only:
//     nothing recorded here is ever read back into attack or retrieval
//     math, so enabling a tracer cannot change any result.
//
//   - Ordered concurrency. Span IDs and ticks are assigned at Start in
//     call order, and a span is published to the export set only by End,
//     under the tracer lock. The contract for parallel sections (the
//     cluster's node fan-out) is: Start and End run on the orchestration
//     goroutine, in a deterministic order, before and after the parallel
//     region; worker goroutines may only set attributes on their own
//     span. Under that discipline the exported tree is identical at every
//     worker count.
package trace

import "sync"

// Context identifies a span for cross-process propagation: it is the
// payload carried over the retrieval wire frame so a data node's
// server-side spans parent correctly under the coordinator's. A Context
// without a span (not Valid) means "no active span" and is omitted from
// the frame entirely.
type Context struct {
	// TraceID names the originating tracer's trace.
	TraceID string
	// SpanID is the active span's ID (IDs start at 1; 0 = none).
	SpanID uint64
}

// Valid reports whether the context names an actual span.
func (c Context) Valid() bool { return c.SpanID != 0 }

// attrKind discriminates the typed attribute value.
type attrKind uint8

const (
	attrInt attrKind = iota
	attrFloat
	attrStr
)

// attr is one typed span attribute. Attributes keep their insertion order
// (no maps anywhere near the export path), which is part of what makes
// trace output byte-stable.
type attr struct {
	key  string
	kind attrKind
	i    int64
	f    float64
	s    string
}

// Span is one node of the trace tree. A span is owned by the goroutine
// that starts it: attribute writes are not synchronized, so only that
// goroutine may touch the span until End, which publishes it to the
// tracer and after which the span must not be used again.
type Span struct {
	tr     *Tracer
	id     uint64
	parent uint64
	remote Context // remote parent, for server-side spans
	name   string
	start  int64
	attrs  []attr
}

// ID returns the span's ID (0 on nil).
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

// Ctx returns the span's propagation context (zero on nil), safe to read
// from worker goroutines.
func (s *Span) Ctx() Context {
	if s == nil {
		return Context{}
	}
	return Context{TraceID: s.tr.traceID, SpanID: s.id}
}

// SetInt records an integer attribute; no-op on nil.
func (s *Span) SetInt(key string, v int64) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, attr{key: key, kind: attrInt, i: v})
}

// SetFloat records a float attribute; no-op on nil.
func (s *Span) SetFloat(key string, v float64) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, attr{key: key, kind: attrFloat, f: v})
}

// SetStr records a string attribute; no-op on nil.
func (s *Span) SetStr(key, v string) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, attr{key: key, kind: attrStr, s: v})
}

// End stamps the span's end tick and publishes it to the tracer's export
// set; no-op on nil. End must run on the goroutine that owns the span,
// and the span must not be touched afterwards.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.tr.finish(s)
}

// Tracer collects one run's span tree. The nil *Tracer is the disabled
// state: Start returns nil and every span method is a free no-op.
type Tracer struct {
	traceID string
	clock   func() int64 // nil = logical step counter

	mu      sync.Mutex
	step    int64
	seq     uint64
	records []Record
}

// New returns an enabled tracer. traceID labels every exported span;
// derive it from the run seed (never from the clock) so traces stay
// reproducible. An empty traceID defaults to "trace".
func New(traceID string) *Tracer {
	if traceID == "" {
		traceID = "trace"
	}
	return &Tracer{traceID: traceID}
}

// TraceID returns the tracer's trace identifier ("" on nil).
func (t *Tracer) TraceID() string {
	if t == nil {
		return ""
	}
	return t.traceID
}

// SetClock injects a real clock (e.g. a monotonic-nanosecond reading) in
// place of the default logical step counter. Real-clock traces are
// NON-deterministic by construction; the default output contains no
// wall-clock reading at all. Call before the first Start.
func (t *Tracer) SetClock(fn func() int64) {
	if t == nil {
		return
	}
	t.clock = fn
}

// Start opens a span under parent (nil parent = root) and returns it; nil
// on a nil tracer. IDs and start ticks are assigned in call order.
func (t *Tracer) Start(parent *Span, name string) *Span {
	if t == nil {
		return nil
	}
	return t.start(parent.ID(), Context{}, name)
}

// StartCtx opens a span under a propagated context: a context from this
// same tracer parents locally; a context from another process (a
// coordinator tracing across the wire) is recorded as the span's remote
// parent, so duotrace can stitch the two files together. An invalid
// context yields a root span.
func (t *Tracer) StartCtx(parent Context, name string) *Span {
	if t == nil {
		return nil
	}
	switch {
	case !parent.Valid():
		return t.start(0, Context{}, name)
	case parent.TraceID == t.traceID:
		return t.start(parent.SpanID, Context{}, name)
	default:
		return t.start(0, parent, name)
	}
}

func (t *Tracer) start(parent uint64, remote Context, name string) *Span {
	sp := &Span{tr: t, parent: parent, remote: remote, name: name}
	t.mu.Lock()
	t.seq++
	sp.id = t.seq
	if t.clock == nil {
		t.step++
		sp.start = t.step
	}
	t.mu.Unlock()
	if t.clock != nil {
		sp.start = t.clock()
	}
	return sp
}

// finish converts the span into an export record under the tracer lock.
func (t *Tracer) finish(s *Span) {
	var end int64
	if t.clock != nil {
		end = t.clock()
	}
	rec := Record{
		Trace:       t.traceID,
		ID:          s.id,
		Parent:      s.parent,
		RemoteTrace: s.remote.TraceID,
		RemoteSpan:  s.remote.SpanID,
		Name:        s.name,
		Start:       s.start,
	}
	if len(s.attrs) > 0 {
		rec.Attrs = make(map[string]any, len(s.attrs))
		for _, a := range s.attrs {
			switch a.kind {
			case attrInt:
				rec.Attrs[a.key] = a.i
			case attrFloat:
				rec.Attrs[a.key] = a.f
			default:
				rec.Attrs[a.key] = a.s
			}
		}
	}
	t.mu.Lock()
	if t.clock == nil {
		t.step++
		end = t.step
	}
	rec.End = end
	t.records = append(t.records, rec)
	t.mu.Unlock()
}

// Len returns the number of finished spans (0 on nil).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.records)
}
