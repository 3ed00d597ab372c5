package retrieval

import (
	"bytes"
	"errors"
	"reflect"
	"sync"
	"testing"

	"time"

	"duo/internal/trace"
	"duo/internal/video"
)

// tracedStub records the span context it was called with; it stands in
// for a TCPTransport when testing decorator forwarding.
type tracedStub struct {
	stubTransport
	mu2 sync.Mutex
	tcs []trace.Context
}

func (s *tracedStub) NearestTraced(tc trace.Context, feat []float64, m int) ([]Result, error) {
	s.mu2.Lock()
	s.tcs = append(s.tcs, tc)
	s.mu2.Unlock()
	return s.Nearest(feat, m)
}

func (s *tracedStub) contexts() []trace.Context {
	s.mu2.Lock()
	defer s.mu2.Unlock()
	return append([]trace.Context(nil), s.tcs...)
}

func clusterTraceRun(t *testing.T) []trace.Record {
	t.Helper()
	m, c := chaosSystem(t)
	cl := NewLocalCluster(m, c.Train, 3)
	defer cl.Close()
	tr := trace.New("cluster-test")
	cl.SetTrace(tr)
	root := tr.Start(nil, "retrieve")
	if _, err := cl.RetrieveTraced(root.Ctx(), c.Test[0], 4); err != nil {
		t.Fatal(err)
	}
	root.End()
	return tr.Records()
}

func TestClusterRecordsNodeSpans(t *testing.T) {
	recs := clusterTraceRun(t)
	if len(recs) != 4 { // root + one span per node
		t.Fatalf("got %d spans, want 4: %+v", len(recs), recs)
	}
	var rootID uint64
	for _, r := range recs {
		if r.Name == "retrieve" {
			rootID = r.ID
		}
	}
	nodeIdx := 0
	for _, r := range recs {
		if r.Name != "node" {
			continue
		}
		if r.Parent != rootID {
			t.Errorf("node span parent = %d, want %d", r.Parent, rootID)
		}
		if idx, ok := r.Int("node"); !ok || idx != int64(nodeIdx) {
			t.Errorf("node index attr = %d (%v), want %d", idx, ok, nodeIdx)
		}
		if out, _ := r.Str("outcome"); out != "ok" {
			t.Errorf("node %d outcome = %q, want ok", nodeIdx, out)
		}
		if n, ok := r.Int("results"); !ok || n <= 0 {
			t.Errorf("node %d results attr = %d (%v)", nodeIdx, n, ok)
		}
		nodeIdx++
	}
	if nodeIdx != 3 {
		t.Errorf("found %d node spans, want 3", nodeIdx)
	}
}

func TestClusterNodeSpansAreDeterministic(t *testing.T) {
	render := func(recs []trace.Record) []byte {
		var buf bytes.Buffer
		if err := trace.WriteRecords(&buf, recs); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a := render(clusterTraceRun(t))
	b := render(clusterTraceRun(t))
	if !bytes.Equal(a, b) {
		t.Fatalf("cluster trace not reproducible:\n%s\nvs\n%s", a, b)
	}
}

func TestClusterUntracedCallRecordsNothing(t *testing.T) {
	m, c := chaosSystem(t)
	cl := NewLocalCluster(m, c.Train, 2)
	defer cl.Close()
	tr := trace.New("idle")
	cl.SetTrace(tr)
	if _, err := cl.RetrieveErr(c.Test[0], 4); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 0 {
		t.Errorf("untraced RetrieveErr recorded %d spans, want 0", tr.Len())
	}
}

func TestClusterNodeSpanOutcomes(t *testing.T) {
	m, c := chaosSystem(t)
	nodes := []Transport{
		&stubTransport{rs: stubResults(4)},
		&stubTransport{err: errors.New("node down")},
		&stubTransport{err: ErrBreakerOpen},
	}
	cl := NewCluster(m, nodes)
	defer cl.Close()
	tr := trace.New("outcomes")
	cl.SetTrace(tr)
	root := tr.Start(nil, "retrieve")
	if _, err := cl.RetrieveTraced(root.Ctx(), c.Test[0], 2); err == nil {
		t.Fatal("want a node error under best-effort")
	}
	root.End()
	want := []string{"ok", "error", "fastfail"}
	got := map[int64]string{}
	for _, r := range tr.Records() {
		if r.Name != "node" {
			continue
		}
		idx, _ := r.Int("node")
		got[idx], _ = r.Str("outcome")
	}
	for i, w := range want {
		if got[int64(i)] != w {
			t.Errorf("node %d outcome = %q, want %q", i, got[int64(i)], w)
		}
	}
}

func TestTCPNodeServerParentsSpanRemotely(t *testing.T) {
	m, c := chaosSystem(t)
	nodeTr := trace.New("node-a")
	srv, err := ServeNodeConfig("127.0.0.1:0", NewShard(m, c.Train), NodeServerConfig{Trace: nodeTr})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tp, err := DialNode(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer tp.Close()

	coord := trace.New("coord")
	sp := coord.Start(nil, "node")
	feat := make([]float64, m.FeatureDim())
	feat[0] = 1
	if _, err := tp.NearestTraced(sp.Ctx(), feat, 3); err != nil {
		t.Fatal(err)
	}
	sp.End()
	srv.Close() // flush handlers before reading the node tracer

	recs := nodeTr.Records()
	if len(recs) != 1 || recs[0].Name != "node.serve" {
		t.Fatalf("node tracer recorded %+v, want one node.serve span", recs)
	}
	got := recs[0]
	if got.RemoteTrace != "coord" || got.RemoteSpan != sp.ID() {
		t.Errorf("remote parent = %q/%d, want coord/%d", got.RemoteTrace, got.RemoteSpan, sp.ID())
	}
	if n, ok := got.Int("results"); !ok || n != 3 {
		t.Errorf("results attr = %d (%v), want 3", n, ok)
	}

	// Plain Nearest sends a zero context: the server span is a local root.
	if _, err := tp.Nearest(feat, 2); err == nil {
		recs = nodeTr.Records()
		if len(recs) != 2 || recs[1].RemoteSpan != 0 {
			t.Errorf("untraced call got remote parent: %+v", recs)
		}
	}
}

func TestRetryForwardsTraceContext(t *testing.T) {
	inner := &tracedStub{stubTransport: stubTransport{err: errors.New("flaky")}}
	rt := NewRetryTransport(inner, RetryConfig{MaxAttempts: 3, Sleep: func(time.Duration) {}})
	tc := trace.Context{TraceID: "t", SpanID: 7}
	if _, err := rt.NearestTraced(tc, []float64{1}, 2); err == nil {
		t.Fatal("want error from always-failing stub")
	}
	tcs := inner.contexts()
	if len(tcs) != 3 {
		t.Fatalf("inner saw %d traced attempts, want 3", len(tcs))
	}
	for i, got := range tcs {
		if got != tc {
			t.Errorf("attempt %d context = %+v, want %+v", i, got, tc)
		}
	}
}

func TestBreakerForwardsTraceContextAndRetries(t *testing.T) {
	inner := &tracedStub{stubTransport: stubTransport{err: errors.New("down")}}
	rt := NewRetryTransport(inner, RetryConfig{MaxAttempts: 2, Sleep: func(time.Duration) {}})
	br := NewBreakerTransport(rt, BreakerConfig{FailureThreshold: 100})
	tc := trace.Context{TraceID: "t", SpanID: 3}
	if _, err := br.NearestTraced(tc, []float64{1}, 2); err == nil {
		t.Fatal("want error")
	}
	if got := inner.contexts(); len(got) != 2 || got[0] != tc {
		t.Errorf("context did not pass through breaker+retry: %+v", got)
	}
	// The breaker sees through the retry layer's counter.
	if br.Retries() != rt.Retries() || br.Retries() != 1 {
		t.Errorf("breaker Retries() = %d, retry layer = %d, want both 1", br.Retries(), rt.Retries())
	}
}

// TestQueryMatchesDirectMethod: Query over a plain, a fallible and a traced
// victim returns exactly what the method it dispatches to returns — list,
// error, and the node spans recorded under tc.
func TestQueryMatchesDirectMethod(t *testing.T) {
	m, c := chaosSystem(t)
	cases := []struct {
		name string
		// build returns a fresh victim and the tracer whose root span the
		// query runs under (nil: the query carries no span context).
		build  func() (Retriever, *trace.Tracer)
		direct func(r Retriever, tc trace.Context, v *video.Video, m int) ([]Result, error)
		// fails and spans are what the direct call must show for the row to
		// mean anything: an error, and root + node span records.
		fails bool
		spans int
	}{
		{
			name:  "plain engine ignores a valid context",
			build: func() (Retriever, *trace.Tracer) { return NewEngine(m, c.Train), trace.New("q") },
			direct: func(r Retriever, _ trace.Context, v *video.Video, m int) ([]Result, error) {
				return r.Retrieve(v, m), nil
			},
			spans: 1,
		},
		{
			name: "require-all cluster with a failing node",
			build: func() (Retriever, *trace.Tracer) {
				cl := NewLocalCluster(m, c.Train, 2).SetPolicy(RequireAll())
				flaky := NewFaultTransport(cl.nodes[1], FaultConfig{})
				flaky.FailNext(100, ErrInjectedFailure)
				cl.nodes[1] = flaky
				return cl, nil
			},
			direct: func(r Retriever, _ trace.Context, v *video.Video, m int) ([]Result, error) {
				return r.(*Cluster).RetrieveErr(v, m)
			},
			fails: true,
		},
		{
			name: "cluster with a tracer",
			build: func() (Retriever, *trace.Tracer) {
				tr := trace.New("q")
				return NewLocalCluster(m, c.Train, 3).SetTrace(tr), tr
			},
			direct: func(r Retriever, tc trace.Context, v *video.Video, m int) ([]Result, error) {
				return r.(*Cluster).RetrieveTraced(tc, v, m)
			},
			spans: 4,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			type answer struct {
				rs    []Result
				err   string
				spans []byte
			}
			ask := func(call func(Retriever, trace.Context, *video.Video, int) ([]Result, error)) answer {
				r, tr := tc.build()
				root := tr.Start(nil, "retrieve")
				rs, err := call(r, root.Ctx(), c.Test[0], 4)
				root.End()
				a := answer{rs: rs}
				if err != nil {
					a.err = err.Error()
				}
				var buf bytes.Buffer
				if werr := trace.WriteRecords(&buf, tr.Records()); werr != nil {
					t.Fatal(werr)
				}
				a.spans = buf.Bytes()
				return a
			}
			want, got := ask(tc.direct), ask(Query)
			if n := bytes.Count(want.spans, []byte("\n")); tc.fails != (want.err != "") || n != tc.spans {
				t.Fatalf("direct call: err %q, %d spans; want fails=%v, %d spans", want.err, n, tc.fails, tc.spans)
			}
			if !reflect.DeepEqual(got.rs, want.rs) || got.err != want.err {
				t.Errorf("Query = (%v, %q), direct = (%v, %q)", got.rs, got.err, want.rs, want.err)
			}
			if !bytes.Equal(got.spans, want.spans) {
				t.Errorf("spans under tc differ:\n%s\nvs\n%s", got.spans, want.spans)
			}
		})
	}
}
