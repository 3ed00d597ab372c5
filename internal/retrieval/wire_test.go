package retrieval

// Round-trip tests for every type that crosses a gob boundary: the TCP
// wire protocol (nearestRequest/nearestResponse, including the optional
// trace-context field). The gobsymmetry analyzer cross-checks that every
// gob-encoded type is exercised here, so a new wire field without a
// round-trip test fails duolint.

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"

	"duo/internal/telemetry"
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

// bareRequest and bareResponse are the wire messages with every optional
// field stripped: the baseline an unset field must not add bytes to.
type bareRequest struct {
	Feat []float64
	M    int
}

type bareResponse struct {
	Results []Result
	Err     string
}

// wireCostCase is one message for checkOptionalFieldCost: a request or a
// response (the other nil) with its optional fields set or left unset.
type wireCostCase struct {
	name string
	req  *nearestRequest
	resp *nearestResponse
}

// checkOptionalFieldCost pins the wire cost of the optional fields: gob
// omits zero values and nil pointers (the reason TC and Stats are
// pointers), so a message that leaves TC, ID and Stats unset encodes to
// the same value bytes as the bare one, and setting any of them makes it
// strictly longer. Each stream carries two values so the second is pure
// value, with no type descriptor; its leading bytes are the message length
// and type id, which legitimately differ between streams, so the value
// bytes compare from byte 3.
func checkOptionalFieldCost(t *testing.T, cases ...wireCostCase) {
	t.Helper()
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
	bareReq := secondMessage(&bareRequest{Feat: []float64{9}, M: 1}, &bareRequest{Feat: []float64{1, 2}, M: 3})
	bareResp := secondMessage(&bareResponse{Results: rs[:1]}, &bareResponse{Results: rs})
	for _, tc := range cases {
		var got, bare []byte
		var set bool
		if r := tc.req; r != nil {
			r.Feat, r.M = []float64{1, 2}, 3
			got, bare = secondMessage(&nearestRequest{Feat: []float64{9}, M: 1}, r), bareReq
			set = r.TC != nil || r.ID != 0 || r.Stats != nil
		} else {
			r := tc.resp
			r.Results = rs
			got, bare = secondMessage(&nearestResponse{Results: rs[:1]}, r), bareResp
			set = r.ID != 0 || r.Stats != nil
		}
		switch {
		case len(got) < 4 || len(bare) < 4:
			t.Errorf("%s: messages too short to hold a value: % x / % x", tc.name, got, bare)
		case !set && !bytes.Equal(got[3:], bare[3:]):
			t.Errorf("%s: value bytes differ from the bare message:\n% x\nvs\n% x", tc.name, got, bare)
		case set && len(got) <= len(bare):
			t.Errorf("%s: %d bytes, not longer than the bare %d: the field did not ride the wire", tc.name, len(got), len(bare))
		}
	}
}

func TestZeroStatsFieldsAddNoPayload(t *testing.T) {
	checkOptionalFieldCost(t,
		wireCostCase{name: "request/unset", req: &nearestRequest{}},
		wireCostCase{name: "request/Stats", req: &nearestRequest{Stats: &statsRequest{}}},
		wireCostCase{name: "response/unset", resp: &nearestResponse{}},
		wireCostCase{name: "response/Stats", resp: &nearestResponse{Stats: &statsResponse{Size: 1}}},
	)
}

func TestZeroMuxFieldsAddNoPayload(t *testing.T) {
	checkOptionalFieldCost(t,
		wireCostCase{name: "request/unset", req: &nearestRequest{}},
		wireCostCase{name: "request/ID", req: &nearestRequest{ID: 9}},
		wireCostCase{name: "response/unset", resp: &nearestResponse{}},
		wireCostCase{name: "response/ID", resp: &nearestResponse{ID: 9}},
	)
}

func TestZeroTraceContextAddsNoPayload(t *testing.T) {
	checkOptionalFieldCost(t,
		wireCostCase{name: "request/unset", req: &nearestRequest{}},
		wireCostCase{name: "request/TC", req: &nearestRequest{TC: &trace.Context{TraceID: "run", SpanID: 5}}},
	)
}
