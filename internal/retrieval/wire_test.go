package retrieval

// Round-trip tests for every type that crosses a gob boundary: the TCP
// wire protocol (nearestRequest/nearestResponse, including the optional
// trace-context field) and the persisted index format (indexRecord). The
// gobsymmetry analyzer cross-checks that every gob-encoded type is
// exercised here, so a new wire field without a round-trip test fails
// duolint.

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"duo/internal/telemetry"
	"duo/internal/tensor"
	"duo/internal/trace"
)

func gobRoundTrip(t *testing.T, in, out any) {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(in); err != nil {
		t.Fatalf("encode %T: %v", in, err)
	}
	if err := gob.NewDecoder(&buf).Decode(out); err != nil {
		t.Fatalf("decode %T: %v", out, err)
	}
}

func TestNearestRequestRoundTrip(t *testing.T) {
	in := nearestRequest{
		Feat: []float64{0.25, -1, 3.5},
		M:    7,
		TC:   &trace.Context{TraceID: "run-17", SpanID: 42},
		ID:   91,
	}
	var out nearestRequest
	gobRoundTrip(t, &in, &out)
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip mutated request: %+v -> %+v", in, out)
	}
}

func TestNearestResponseRoundTrip(t *testing.T) {
	in := nearestResponse{
		Results: []Result{
			{ID: "v01", Label: 2, Dist: 0.125},
			{ID: "v02", Label: 0, Dist: 1.5},
		},
		Err:        "boom",
		ID:         91,
		Overloaded: true,
	}
	var out nearestResponse
	gobRoundTrip(t, &in, &out)
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip mutated response: %+v -> %+v", in, out)
	}
}

func TestIndexRecordRoundTrip(t *testing.T) {
	in := indexRecord{
		IDs:    []string{"a", "b"},
		Labels: []int{1, 2},
		Dim:    2,
		Feats:  []float64{0.5, 1, 1.5, 2},
	}
	var out indexRecord
	gobRoundTrip(t, &in, &out)
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip mutated index record: %+v -> %+v", in, out)
	}

	// Back-compat pin. testdata/index_v1.gob was written by Shard.WriteIndex
	// at the last commit that stored the gallery as []*tensor.Tensor, over
	// pinnedIndexRows; index_v1_top5.json is what that commit's Shard.Nearest
	// answered. The flat store must write the same bytes and, loading the old
	// file, return the same lists.
	old, err := os.ReadFile("testdata/index_v1.gob")
	if err != nil {
		t.Fatal(err)
	}
	ids, labels, rows, queries := pinnedIndexRows()
	var fresh bytes.Buffer
	if err := NewShardFromFeatures(ids, labels, rows).WriteIndex(&fresh); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fresh.Bytes(), old) {
		t.Error("WriteIndex bytes differ from the index the previous layout wrote for the same gallery")
	}
	shard, err := ReadShard(bytes.NewReader(old))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := ReadEngine(bytes.NewReader(old), identityModel{dim: shard.Dim()})
	if err != nil {
		t.Fatal(err)
	}
	var rewritten bytes.Buffer
	if err := eng.WriteIndex(&rewritten); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rewritten.Bytes(), old) {
		t.Error("a loaded index does not write back byte-identically")
	}
	raw, err := os.ReadFile("testdata/index_v1_top5.json")
	if err != nil {
		t.Fatal(err)
	}
	var want [][]Result
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		if got := shard.Nearest(q, 5); !reflect.DeepEqual(got, want[i]) {
			t.Errorf("ReadShard query %d:\n got %v\nwant %v", i, got, want[i])
		}
		if got := eng.Retrieve(asVideos(q)[0], 5); !reflect.DeepEqual(got, want[i]) {
			t.Errorf("ReadEngine query %d:\n got %v\nwant %v", i, got, want[i])
		}
	}
}

// pinnedIndexRows is the gallery behind testdata/index_v1.gob (every third
// row duplicates its predecessor, so the pinned lists contain ID-broken
// ties) plus the queries behind index_v1_top5.json. Changing it invalidates
// both files.
func pinnedIndexRows() (ids []string, labels []int, rows []*tensor.Tensor, queries [][]float64) {
	rng := rand.New(rand.NewSource(20260929))
	const n, dim = 12, 4
	for i := 0; i < n; i++ {
		row := make([]float64, dim)
		if i%3 == 2 {
			copy(row, rows[i-1].Data())
		} else {
			for d := range row {
				row[d] = rng.NormFloat64()
			}
		}
		ids = append(ids, fmt.Sprintf("pin-%02d", i))
		labels = append(labels, i%4)
		rows = append(rows, tensor.From(row, dim))
	}
	for q := 0; q < 3; q++ {
		query := make([]float64, dim)
		for d := range query {
			query[d] = rng.NormFloat64()
		}
		queries = append(queries, query)
	}
	return ids, labels, rows, queries
}

// legacyNearestRequest is the pre-trace wire struct, kept here to pin
// cross-version compatibility of the protocol extensions (trace context,
// then multiplexing IDs).
type legacyNearestRequest struct {
	Feat []float64
	M    int
}

// legacyNearestResponse is the pre-multiplexing response struct (no ID, no
// Overloaded flag), pinning the server-to-old-client direction.
type legacyNearestResponse struct {
	Results []Result
	Err     string
}

func TestNearestRequestBackwardCompatible(t *testing.T) {
	// New client -> old server: the unknown TC and ID fields are skipped,
	// so a multiplexed frame still decodes on a pre-mux node.
	in := nearestRequest{Feat: []float64{1, 2}, M: 3, TC: &trace.Context{TraceID: "t", SpanID: 9}, ID: 7}
	var old legacyNearestRequest
	gobRoundTrip(t, &in, &old)
	if !reflect.DeepEqual(old.Feat, in.Feat) || old.M != in.M {
		t.Errorf("old server decoded %+v from %+v", old, in)
	}

	// Old client -> new server: TC stays zero (no phantom span parent) and
	// ID stays 0 (which routes the server onto the serialized legacy path).
	legacy := legacyNearestRequest{Feat: []float64{4, 5}, M: 6}
	var out nearestRequest
	gobRoundTrip(t, &legacy, &out)
	if !reflect.DeepEqual(out.Feat, legacy.Feat) || out.M != legacy.M {
		t.Errorf("new server decoded %+v from %+v", out, legacy)
	}
	if out.TC != nil {
		t.Errorf("legacy request produced a trace context: %+v", out.TC)
	}
	if out.ID != 0 {
		t.Errorf("legacy request produced a mux ID: %d", out.ID)
	}
}

func TestNearestResponseBackwardCompatible(t *testing.T) {
	// New server -> old client: ID and Overloaded are skipped; a shed still
	// surfaces as an ordinary node error through the Err text.
	in := shedResponse(42)
	var old legacyNearestResponse
	gobRoundTrip(t, &in, &old)
	if old.Err == "" {
		t.Error("old client saw no error text on a shed response")
	}

	// Old server -> new client: no ID on the wire, so the response decodes
	// with ID 0 (FIFO-matched) and Overloaded false.
	legacy := legacyNearestResponse{Results: []Result{{ID: "v01", Label: 1, Dist: 0.5}}, Err: ""}
	var out nearestResponse
	gobRoundTrip(t, &legacy, &out)
	if !reflect.DeepEqual(out.Results, legacy.Results) {
		t.Errorf("new client decoded %+v from %+v", out, legacy)
	}
	if out.ID != 0 || out.Overloaded {
		t.Errorf("legacy response produced mux fields: %+v", out)
	}
}

func TestStatsProbeRoundTrip(t *testing.T) {
	inReq := nearestRequest{ID: 4, Stats: &statsRequest{Rings: true}}
	var outReq nearestRequest
	gobRoundTrip(t, &inReq, &outReq)
	if !reflect.DeepEqual(inReq, outReq) {
		t.Errorf("round trip mutated stats request: %+v -> %+v", inReq, outReq)
	}

	inResp := nearestResponse{ID: 4, Stats: &statsResponse{
		Snapshot: &telemetry.Snapshot{
			Counters: map[string]int64{"shard.queries": 12},
			Histograms: map[string]telemetry.HistogramStats{
				"shard.scan_ns": {
					Count: 3, Sum: 600, Min: 100, Max: 300,
					Mean: 200, P50: 200, P95: 300, P99: 300,
					Bounds:  []float64{100, 1000},
					Buckets: []int64{1, 2, 0},
				},
			},
		},
		Size: 128,
		Addr: "127.0.0.1:9999",
	}}
	var outResp nearestResponse
	gobRoundTrip(t, &inResp, &outResp)
	if !reflect.DeepEqual(inResp, outResp) {
		t.Errorf("round trip mutated stats response:\n%+v\n->\n%+v", inResp, outResp)
	}
}

func TestStatsFieldsBackwardCompatible(t *testing.T) {
	// New coordinator -> old server: the unknown Stats field is skipped,
	// so the probe decodes as an empty scan (nil Feat, M 0) that the old
	// node answers harmlessly — which is how the client detects
	// ErrStatsUnsupported (no Stats payload comes back).
	in := nearestRequest{ID: 3, Stats: &statsRequest{Rings: true}}
	var old legacyNearestRequest
	gobRoundTrip(t, &in, &old)
	if old.Feat != nil || old.M != 0 {
		t.Errorf("old server decoded a stats probe as a real scan: %+v", old)
	}

	// Old server -> new coordinator: no Stats field on the wire, so the
	// response decodes with Stats nil.
	legacy := legacyNearestResponse{Results: []Result{{ID: "v01", Label: 1, Dist: 0.5}}}
	var out nearestResponse
	gobRoundTrip(t, &legacy, &out)
	if out.Stats != nil {
		t.Errorf("legacy response produced a stats payload: %+v", out.Stats)
	}
}

// TestZeroStatsFieldsAddNoPayload pins the wire-cost contract of the
// stats extension: a request or response without a stats payload encodes
// to value bytes identical to the legacy protocol (gob omits nil pointer
// fields), and a probe is strictly longer. Old wire bytes are unchanged.
func TestZeroStatsFieldsAddNoPayload(t *testing.T) {
	secondMessage := func(v1, v2 any) []byte {
		t.Helper()
		var buf bytes.Buffer
		enc := gob.NewEncoder(&buf)
		if err := enc.Encode(v1); err != nil {
			t.Fatal(err)
		}
		n := buf.Len()
		if err := enc.Encode(v2); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()[n:]
	}
	plain := secondMessage(
		&nearestRequest{Feat: []float64{9}, M: 1},
		&nearestRequest{Feat: []float64{1, 2}, M: 3},
	)
	legacy := secondMessage(
		&legacyNearestRequest{Feat: []float64{9}, M: 1},
		&legacyNearestRequest{Feat: []float64{1, 2}, M: 3},
	)
	probe := secondMessage(
		&nearestRequest{Feat: []float64{9}, M: 1},
		&nearestRequest{Feat: []float64{1, 2}, M: 3, Stats: &statsRequest{}},
	)
	if len(plain) < 4 || len(legacy) < 4 || !bytes.Equal(plain[3:], legacy[3:]) {
		t.Errorf("stats-less request value bytes differ from legacy protocol:\n% x\nvs\n% x", plain, legacy)
	}
	if len(probe) <= len(plain) {
		t.Errorf("probe message (%d bytes) not longer than plain (%d): Stats did not ride the wire", len(probe), len(plain))
	}

	rs := []Result{{ID: "v01", Label: 1, Dist: 0.5}}
	plainResp := secondMessage(
		&nearestResponse{Results: rs[:1]},
		&nearestResponse{Results: rs},
	)
	legacyResp := secondMessage(
		&legacyNearestResponse{Results: rs[:1]},
		&legacyNearestResponse{Results: rs},
	)
	statsResp := secondMessage(
		&nearestResponse{Results: rs[:1]},
		&nearestResponse{Stats: &statsResponse{Size: 1}},
	)
	if len(plainResp) < 4 || len(legacyResp) < 4 || !bytes.Equal(plainResp[3:], legacyResp[3:]) {
		t.Errorf("stats-less response value bytes differ from legacy protocol:\n% x\nvs\n% x", plainResp, legacyResp)
	}
	if len(statsResp) <= 4 {
		t.Errorf("stats response suspiciously small (%d bytes): payload did not ride the wire", len(statsResp))
	}
}

func TestZeroMuxFieldsAddNoPayload(t *testing.T) {
	// The multiplexing extension leans on the same gob property as the
	// trace context: zero-valued fields are omitted from the encoded value,
	// so an unnumbered response is byte-identical to the legacy protocol.
	secondMessage := func(v1, v2 any) []byte {
		t.Helper()
		var buf bytes.Buffer
		enc := gob.NewEncoder(&buf)
		if err := enc.Encode(v1); err != nil {
			t.Fatal(err)
		}
		n := buf.Len()
		if err := enc.Encode(v2); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()[n:]
	}
	rs := []Result{{ID: "v01", Label: 1, Dist: 0.5}}
	unnumbered := secondMessage(
		&nearestResponse{Results: rs[:1]},
		&nearestResponse{Results: rs},
	)
	legacy := secondMessage(
		&legacyNearestResponse{Results: rs[:1]},
		&legacyNearestResponse{Results: rs},
	)
	if len(unnumbered) < 4 || len(legacy) < 4 || !bytes.Equal(unnumbered[3:], legacy[3:]) {
		t.Errorf("unnumbered response value bytes differ from legacy protocol:\n% x\nvs\n% x", unnumbered, legacy)
	}
	numbered := secondMessage(
		&nearestResponse{Results: rs[:1]},
		&nearestResponse{Results: rs, ID: 9},
	)
	if len(numbered) <= len(unnumbered) {
		t.Errorf("numbered message (%d bytes) not longer than unnumbered (%d): ID did not ride the wire", len(numbered), len(unnumbered))
	}
}

func TestZeroTraceContextAddsNoPayload(t *testing.T) {
	// gob omits nil pointer fields from the encoded value (the reason TC
	// is *trace.Context, not trace.Context: a zero-valued struct field
	// still costs an empty-struct marker on the wire). An untraced
	// request must therefore encode to the same value bytes as the legacy
	// protocol, and a traced one must be strictly longer. Encode two
	// values per stream so the second message is pure value — no type
	// descriptor; its leading bytes are the message length and type id,
	// which legitimately differ between streams, so compare from byte 3.
	secondMessage := func(v1, v2 any) []byte {
		t.Helper()
		var buf bytes.Buffer
		enc := gob.NewEncoder(&buf)
		if err := enc.Encode(v1); err != nil {
			t.Fatal(err)
		}
		n := buf.Len()
		if err := enc.Encode(v2); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()[n:]
	}
	untraced := secondMessage(
		&nearestRequest{Feat: []float64{9}, M: 1},
		&nearestRequest{Feat: []float64{1, 2}, M: 3},
	)
	legacy := secondMessage(
		&legacyNearestRequest{Feat: []float64{9}, M: 1},
		&legacyNearestRequest{Feat: []float64{1, 2}, M: 3},
	)
	traced := secondMessage(
		&nearestRequest{Feat: []float64{9}, M: 1},
		&nearestRequest{Feat: []float64{1, 2}, M: 3, TC: &trace.Context{TraceID: "run", SpanID: 5}},
	)
	if len(untraced) < 4 || len(legacy) < 4 || !bytes.Equal(untraced[3:], legacy[3:]) {
		t.Errorf("untraced request value bytes differ from legacy protocol:\n% x\nvs\n% x", untraced, legacy)
	}
	if len(traced) <= len(untraced) {
		t.Errorf("traced message (%d bytes) not longer than untraced (%d): TC did not ride the wire", len(traced), len(untraced))
	}
}
