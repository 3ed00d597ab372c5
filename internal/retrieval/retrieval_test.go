package retrieval

import (
	"bufio"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"net"
	"os"
	"reflect"
	"testing"
	"time"

	"duo/internal/dataset"
	"duo/internal/models"
	"duo/internal/nn/losses"
	"duo/internal/video"
)

// testSystem builds a tiny trained retrieval engine plus corpus.
func testSystem(t *testing.T) (*Engine, *dataset.Corpus, models.Model) {
	t.Helper()
	c, err := dataset.Generate(dataset.Config{
		Name: "RetrSim", Categories: 4, TrainPerCategory: 6, TestPerCategory: 3,
		Frames: 8, Channels: 3, Height: 12, Width: 12, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	g := models.GeometryOf(c.Train[0])
	m := models.NewC3D(rng, g, 16)
	cfg := models.DefaultTrainConfig()
	cfg.Epochs = 3
	if _, err := models.Train(m, losses.Triplet{Margin: 0.2}, c.Train, cfg); err != nil {
		t.Fatal(err)
	}
	return NewEngine(m, c.Train), c, m
}

func TestEngineRetrieveBasics(t *testing.T) {
	eng, c, _ := testSystem(t)
	q := c.Test[0]
	rs := eng.Retrieve(q, 5)
	if len(rs) != 5 {
		t.Fatalf("got %d results", len(rs))
	}
	for i := 1; i < len(rs); i++ {
		if rs[i].Dist < rs[i-1].Dist {
			t.Fatal("results not sorted by distance")
		}
	}
	if eng.QueryCount() != 1 {
		t.Errorf("query count = %d", eng.QueryCount())
	}
	eng.ResetQueryCount()
	if eng.QueryCount() != 0 {
		t.Error("ResetQueryCount failed")
	}
}

func TestEngineRetrieveClampsM(t *testing.T) {
	eng, c, _ := testSystem(t)
	rs := eng.Retrieve(c.Test[0], 10_000)
	if len(rs) != eng.GallerySize() {
		t.Errorf("len = %d, want gallery size %d", len(rs), eng.GallerySize())
	}
	if got := eng.Retrieve(c.Test[0], 0); len(got) != 0 {
		t.Errorf("m=0 returned %d results", len(got))
	}
}

func TestEngineSelfRetrievalIsFirst(t *testing.T) {
	eng, c, _ := testSystem(t)
	// A gallery video queried against the gallery must return itself first
	// (distance 0).
	q := c.Train[3]
	rs := eng.Retrieve(q, 3)
	if rs[0].ID != q.ID || rs[0].Dist > 1e-9 {
		t.Errorf("self retrieval top-1 = %+v", rs[0])
	}
}

func TestEngineRetrievalIsByCategory(t *testing.T) {
	eng, c, _ := testSystem(t)
	// mAP over test queries must beat chance (1/categories = 0.25).
	if got := EvaluateMAP(eng, c.Test, 6); got <= 0.3 {
		t.Errorf("mAP = %g, want > 0.3 (chance is 0.25)", got)
	}
}

func TestEngineDeterministic(t *testing.T) {
	eng, c, _ := testSystem(t)
	a := IDs(eng.Retrieve(c.Test[1], 6))
	b := IDs(eng.Retrieve(c.Test[1], 6))
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("retrieval not deterministic")
		}
	}
}

func TestClusterMatchesEngine(t *testing.T) {
	eng, c, m := testSystem(t)
	cl := NewLocalCluster(m, c.Train, 3)
	defer cl.Close()
	if cl.Nodes() != 3 {
		t.Fatalf("nodes = %d", cl.Nodes())
	}
	for _, q := range c.Test[:4] {
		a := IDs(eng.Retrieve(q, 6))
		b := IDs(cl.Retrieve(q, 6))
		if len(a) != len(b) {
			t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("query %s: sharded list differs at %d: %v vs %v", q.ID, i, a, b)
			}
		}
	}
	if cl.QueryCount() != 4 {
		t.Errorf("cluster query count = %d", cl.QueryCount())
	}
}

func TestClusterSingleNodeDegenerate(t *testing.T) {
	_, c, m := testSystem(t)
	cl := NewLocalCluster(m, c.Train, 1)
	defer cl.Close()
	rs := cl.Retrieve(c.Test[0], 4)
	if len(rs) != 4 {
		t.Errorf("got %d results", len(rs))
	}
}

type failingTransport struct{}

func (failingTransport) Nearest([]float64, int) ([]Result, error) {
	return nil, errFailingNode
}
func (failingTransport) Close() error { return nil }

var errFailingNode = errNode{}

type errNode struct{}

func (errNode) Error() string { return "node down" }

func TestClusterDegradesOnNodeFailure(t *testing.T) {
	_, c, m := testSystem(t)
	healthy := NewLocalCluster(m, c.Train, 2)
	defer healthy.Close()
	// Replace one node with a failing transport.
	mixed := NewCluster(m, []Transport{healthy.nodes[0], failingTransport{}})
	rs, err := mixed.RetrieveErr(c.Test[0], 4)
	if err == nil {
		t.Error("expected node error to be reported")
	}
	if len(rs) == 0 {
		t.Error("expected partial results from the healthy node")
	}
}

// pick selects the videos at the given indices.
func pick(vs []*video.Video, idxs []int) []*video.Video {
	out := make([]*video.Video, 0, len(idxs))
	for _, i := range idxs {
		out = append(out, vs[i])
	}
	return out
}

func TestTCPClusterMatchesLocal(t *testing.T) {
	eng, c, m := testSystem(t)

	// Shard the gallery across two TCP node servers.
	var half [2][]int
	for i := range c.Train {
		half[i%2] = append(half[i%2], i)
	}
	var nodes []Transport
	var servers []*NodeServer
	for _, idxs := range half {
		shard := NewShard(m, pick(c.Train, idxs))
		srv, err := ServeNode("127.0.0.1:0", shard)
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, srv)
		tr, err := DialNode(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, tr)
	}
	cl := NewCluster(m, nodes)
	defer func() {
		cl.Close()
		for _, s := range servers {
			s.Close()
		}
	}()

	for _, q := range c.Test[:3] {
		a := IDs(eng.Retrieve(q, 5))
		b, err := cl.RetrieveErr(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		bi := IDs(b)
		for i := range a {
			if a[i] != bi[i] {
				t.Fatalf("TCP cluster differs at %d: %v vs %v", i, a, bi)
			}
		}
	}
}

func TestTCPTransportClosedErrors(t *testing.T) {
	_, c, m := testSystem(t)
	shard := NewShard(m, c.Train[:4])
	srv, err := ServeNode("127.0.0.1:0", shard)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tr, err := DialNode(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Nearest([]float64{1}, 1); err == nil {
		t.Error("Nearest on closed transport succeeded")
	}
	if err := tr.Close(); err != nil {
		t.Error("double close errored")
	}
}

func TestNodeServerRejectsNegativeM(t *testing.T) {
	_, c, m := testSystem(t)
	shard := NewShard(m, c.Train[:4])
	srv, err := ServeNode("127.0.0.1:0", shard)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tr, err := DialNode(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if _, err := tr.Nearest(make([]float64, m.FeatureDim()), -1); err == nil {
		t.Error("negative m accepted")
	}
}

// TestNodeServerSurvivesMalformedRequests: a frame whose feature length is
// not the index dimension (or whose m is negative) is answered with a typed
// ErrBadRequest instead of reaching the index — where it would panic in a
// handler goroutine and take the node down. The same connection then serves
// a good request, the retry layer does not re-send the frame, and the
// breaker does not count it against the node. Hand-built hostile frames
// (hostileFrames) cost one request or one connection, never the node.
func TestNodeServerSurvivesMalformedRequests(t *testing.T) {
	_, c, m := testSystem(t)
	dim := m.FeatureDim()
	shard := NewShard(m, c.Train[:6])
	_, pq := newPQEngine(t, m, c.Train[:6], PQConfig{Subspaces: 2, Centroids: 2, Seed: 1, RerankDepth: 6})
	for name, index := range map[string]GalleryIndex{"shard": shard, "pq": pq} {
		srv, err := ServeNode("127.0.0.1:0", index)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		tcp, err := DialNode(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer tcp.Close()
		retry := NewRetryTransport(tcp, RetryConfig{MaxAttempts: 3, Sleep: func(time.Duration) {}})
		node := NewBreakerTransport(retry, BreakerConfig{FailureThreshold: 1})

		good := models.Embed(m, c.Test[0]).Data()
		want := index.Nearest(good, 3)
		bad := []struct {
			feat []float64
			m    int
		}{
			{make([]float64, dim-1), 3},
			{make([]float64, dim+1), 3},
			{nil, 3},
			{good, -1},
		}
		for _, b := range bad {
			if _, err := node.Nearest(b.feat, b.m); !errors.Is(err, ErrBadRequest) {
				t.Fatalf("%s: feat len %d, m %d: err = %v, want ErrBadRequest", name, len(b.feat), b.m, err)
			}
			got, err := node.Nearest(good, 3)
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: good request after a bad one: %v, err %v; want %v", name, got, err, want)
			}
		}
		hostileFrames(t, name, srv.Addr(), good, want)
		if n := tcp.Reconnects(); n != 0 {
			t.Errorf("%s: %d reconnects: a bad request must not cost the connection", name, n)
		}
		if n := retry.Retries(); n != 0 {
			t.Errorf("%s: bad requests were retried %d times", name, n)
		}
		if st := node.State(); st != BreakerClosed {
			t.Errorf("%s: breaker %v after bad requests, want closed", name, st)
		}
	}
}

// hostileFrames sends hand-built frames to the node at addr over raw
// connections. A length-delimited body that does not parse is refused as
// ErrBadRequest, echoing its ID, and the same connection then serves a
// good request. A header past the frame limit makes the node close that
// connection at once, far inside its idle timeout, while another
// connection keeps being served.
func hostileFrames(t *testing.T, name, addr string, good []float64, want []Result) {
	t.Helper()
	dial := func() (net.Conn, *bufio.Reader) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		conn.SetDeadline(time.Now().Add(10 * time.Second)) //duolint:allow walltime test watchdog on a raw socket; no result bit depends on it
		return conn, bufio.NewReader(conn)
	}
	exchange := func(conn net.Conn, r *bufio.Reader, frame []byte) nearestResponse {
		t.Helper()
		if _, err := conn.Write(frame); err != nil {
			t.Fatalf("%s: write: %v", name, err)
		}
		body, err := readFrame(r, nil)
		if err != nil {
			t.Fatalf("%s: read reply: %v", name, err)
		}
		resp, err := decodeResponse(body)
		if err != nil {
			t.Fatalf("%s: decode reply: %v", name, err)
		}
		return resp
	}
	body := frameOf(t, &nearestRequest{ID: 7, M: 3, Feat: good})[frameHeader:]
	goodFrame := frameOf(t, &nearestRequest{ID: 8, M: 3, Feat: good})
	conn, r := dial()
	for _, tc := range []struct {
		name string
		body []byte
	}{
		{"dim past the body", body[:len(body)-8]},
		{"trailing bytes", append(append([]byte(nil), body...), 0)},
		{"unknown kind", append([]byte{9}, body[1:]...)},
	} {
		frame := append(binary.LittleEndian.AppendUint32(nil, uint32(len(tc.body))), tc.body...)
		if resp := exchange(conn, r, frame); resp.ID != 7 || !resp.BadRequest {
			t.Errorf("%s: %s: reply %+v, want a bad-request refusal of ID 7", name, tc.name, resp)
		}
		if resp := exchange(conn, r, goodFrame); resp.ID != 8 || !reflect.DeepEqual(resp.Results, want) {
			t.Errorf("%s: good request after %s: reply %+v, want %v", name, tc.name, resp, want)
		}
	}

	over, _ := dial()
	start := time.Now() //duolint:allow walltime test bound on how promptly the node drops the connection; no result bit depends on it
	if _, err := over.Write(overLimitFrame()); err != nil {
		t.Fatalf("%s: write: %v", name, err)
	}
	if n, err := over.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Errorf("%s: over-limit header: read %d bytes, err %v; want the node to close the connection", name, n, err)
	}
	if took := time.Since(start); took > 5*time.Second { //duolint:allow walltime test bound on how promptly the node drops the connection; no result bit depends on it
		t.Errorf("%s: over-limit header closed after %v, want at once", name, took)
	}
	if resp := exchange(conn, r, goodFrame); resp.ID != 8 || !reflect.DeepEqual(resp.Results, want) {
		t.Errorf("%s: other connection after an over-limit header: reply %+v, want %v", name, resp, want)
	}
}

func TestEvaluateQualityBundle(t *testing.T) {
	eng, c, _ := testSystem(t)
	q := Evaluate(eng, c.Test, 6)
	if q.MAP <= 0 || q.MAP > 1 {
		t.Errorf("MAP = %g", q.MAP)
	}
	if q.RecallAt1 < 0 || q.RecallAt1 > 1 {
		t.Errorf("Recall@1 = %g", q.RecallAt1)
	}
	if q.MRR < q.MAP-0.5 {
		t.Errorf("MRR %g implausibly below MAP %g", q.MRR, q.MAP)
	}
	// MRR ≥ Recall@1 always (rank-1 hits contribute 1 to both).
	if q.MRR < q.RecallAt1-1e-12 {
		t.Errorf("MRR %g < Recall@1 %g", q.MRR, q.RecallAt1)
	}
}

func TestClusterSurvivesNodeCrash(t *testing.T) {
	eng, c, m := testSystem(t)
	_ = eng
	// Two TCP nodes; kill one mid-session and verify the coordinator
	// degrades to partial results with a reported error.
	shardA := NewShard(m, c.Train[:len(c.Train)/2])
	shardB := NewShard(m, c.Train[len(c.Train)/2:])
	srvA, err := ServeNode("127.0.0.1:0", shardA)
	if err != nil {
		t.Fatal(err)
	}
	defer srvA.Close()
	srvB, err := ServeNode("127.0.0.1:0", shardB)
	if err != nil {
		t.Fatal(err)
	}
	trA, err := DialNode(srvA.Addr())
	if err != nil {
		t.Fatal(err)
	}
	trB, err := DialNode(srvB.Addr())
	if err != nil {
		t.Fatal(err)
	}
	cl := NewCluster(m, []Transport{trA, trB})
	defer cl.Close()

	q := c.Test[0]
	if rs, err := cl.RetrieveErr(q, 5); err != nil || len(rs) != 5 {
		t.Fatalf("healthy cluster: %v, %d results", err, len(rs))
	}

	// Crash node B.
	if err := srvB.Close(); err != nil {
		t.Fatal(err)
	}
	rs, err := cl.RetrieveErr(q, 5)
	if err == nil {
		t.Error("crashed node did not surface an error")
	}
	if len(rs) == 0 {
		t.Error("no partial results from the surviving node")
	}
	// Every surviving result must come from shard A.
	inA := map[string]bool{}
	for _, v := range c.Train[:len(c.Train)/2] {
		inA[v.ID] = true
	}
	for _, r := range rs {
		if !inA[r.ID] {
			t.Errorf("result %s not from the surviving shard", r.ID)
		}
	}
}

func TestRecallAtMEdgeCases(t *testing.T) {
	eng, c, _ := testSystem(t)
	if got := RecallAtM(eng, eng, nil, 5); got != 0 {
		t.Errorf("recall on no queries = %g", got)
	}
	if got := RecallAtM(eng, eng, c.Test, 5); math.Abs(got-1) > 1e-12 {
		t.Errorf("self recall = %g, want 1", got)
	}
}
