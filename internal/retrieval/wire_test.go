package retrieval

// Tests of the wire frame (wire.go): every message round-trips through
// encode, readFrame and decode; optional fields add bytes only when set,
// by the frame's size formula; and the decoders, fuzzed, either reject a
// frame with errFrame or decode a message that re-encodes to its bytes.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"duo/internal/telemetry"
	"duo/internal/trace"
)

// frameOf encodes one message (a *nearestRequest or *nearestResponse).
func frameOf(t testing.TB, msg any) []byte {
	t.Helper()
	var b []byte
	var err error
	switch m := msg.(type) {
	case *nearestRequest:
		b, err = appendRequest(nil, m)
	case *nearestResponse:
		b, err = appendResponse(nil, m)
	}
	if err != nil {
		t.Fatalf("encode %T: %v", msg, err)
	}
	return b
}

// readBody reads the frame's body back through readFrame, checking that
// the frame is exactly one frame.
func readBody(t *testing.T, frame []byte) []byte {
	t.Helper()
	r := bufio.NewReader(bytes.NewReader(frame))
	body, err := readFrame(r, nil)
	if err != nil {
		t.Fatalf("readFrame: %v", err)
	}
	if r.Buffered() != 0 {
		t.Fatalf("%d bytes after the frame", r.Buffered())
	}
	return body
}

func requestRoundTrip(t *testing.T, in nearestRequest) {
	t.Helper()
	out, err := decodeRequest(readBody(t, frameOf(t, &in)))
	if err != nil || !reflect.DeepEqual(in, out) {
		t.Errorf("round trip mutated request: %+v -> %+v, %v", in, out, err)
	}
}

func responseRoundTrip(t *testing.T, in nearestResponse) {
	t.Helper()
	out, err := decodeResponse(readBody(t, frameOf(t, &in)))
	if err != nil || !reflect.DeepEqual(in, out) {
		t.Errorf("round trip mutated response: %+v -> %+v, %v", in, out, err)
	}
}

func TestNearestRequestRoundTrip(t *testing.T) {
	requestRoundTrip(t, nearestRequest{
		Feat: []float64{0.25, -1, 3.5},
		M:    7,
		TC:   trace.Context{TraceID: "run-17", SpanID: 42},
		ID:   91,
	})
	requestRoundTrip(t, nearestRequest{Feat: []float64{1}, M: -1, ID: 1})
}

func TestNearestResponseRoundTrip(t *testing.T) {
	responseRoundTrip(t, nearestResponse{
		Results: []Result{
			{ID: "v01", Label: 2, Dist: 0.125},
			{ID: "v02", Label: 0, Dist: 1.5},
		},
		Err:        "boom",
		ID:         91,
		Overloaded: true,
	})
	responseRoundTrip(t, nearestResponse{ID: 3, BadRequest: true, Err: "query dim 1, index dim 2"})
}

// TestStatsProbeRoundTrip carries a probe and its reply, whose payload is
// the node's NodeStats JSON, through the frame and back to NodeStats.
func TestStatsProbeRoundTrip(t *testing.T) {
	requestRoundTrip(t, nearestRequest{ID: 4, Stats: true, Rings: true})

	in := NodeStats{
		Snapshot: &telemetry.Snapshot{
			Counters: map[string]int64{"shard.queries": 12},
			Histograms: map[string]telemetry.HistogramStats{
				"shard.scan_ns": {
					Count: 3, Sum: 600, Min: 100, Max: 300,
					Mean: 200, P50: 200, P95: 300, P99: 0.1,
					Bounds:  []float64{100, 1000},
					Buckets: []int64{1, 2, 0},
				},
			},
			Rings: map[string][]float64{"shard.recent": {1.0 / 3, -2e-300}},
		},
		Size: 128,
		Addr: "127.0.0.1:9999",
	}
	payload, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	responseRoundTrip(t, nearestResponse{ID: 4, Stats: payload})
	responseRoundTrip(t, nearestResponse{ID: 5, Stats: []byte{}})
	var out NodeStats
	if err := json.Unmarshal(payload, &out); err != nil || !reflect.DeepEqual(in, out) {
		t.Errorf("stats payload mutated:\n%+v\n->\n%+v (%v)", in, out, err)
	}
}

// Frame sizes by the layout in wire.go: the header, then the fixed fields
// of each message and its variable parts.
func requestSize(dim, traceID int, traced bool) int {
	n := frameHeader + 1 + 8 + 8 + 4 + 8*dim
	if traced {
		n += 4 + traceID + 8
	}
	return n
}

func responseSize(errLen int, ids []string, stats int) int {
	n := frameHeader + 8 + 1 + 4 + errLen
	if stats >= 0 {
		return n + stats
	}
	n += 4
	for _, id := range ids {
		n += 4 + len(id) + 8 + 8
	}
	return n
}

// checkSize asserts that each message encodes to the size formula's count.
func checkSize(t *testing.T, name string, msg any, want int) {
	t.Helper()
	if got := len(frameOf(t, msg)); got != want {
		t.Errorf("%s: %d bytes, want %d", name, got, want)
	}
}

// TestZeroStatsFieldsAddNoPayload: a scan carries no stats bytes either
// way, and only a probe reply carries a payload.
func TestZeroStatsFieldsAddNoPayload(t *testing.T) {
	rs := []Result{{ID: "v01", Label: 1, Dist: 0.5}}
	checkSize(t, "scan", &nearestRequest{Feat: []float64{1, 2}, M: 3}, requestSize(2, 0, false))
	checkSize(t, "probe", &nearestRequest{Stats: true, Rings: true}, requestSize(0, 0, false))
	checkSize(t, "scan reply", &nearestResponse{Results: rs}, responseSize(0, []string{"v01"}, -1))
	checkSize(t, "probe reply", &nearestResponse{Stats: []byte(`{}`)}, responseSize(0, nil, 2))
}

// TestZeroMuxFieldsAddNoPayload pins the frame's size formula: the ID is
// fixed-width, so setting it changes no length.
func TestZeroMuxFieldsAddNoPayload(t *testing.T) {
	for _, id := range []uint64{0, 9, 1<<64 - 1} {
		checkSize(t, "request", &nearestRequest{ID: id, Feat: []float64{1, 2, 3}, M: 3}, requestSize(3, 0, false))
		checkSize(t, "response", &nearestResponse{ID: id, Err: "no", Results: []Result{{ID: "ab"}, {ID: ""}}},
			responseSize(2, []string{"ab", ""}, -1))
	}
}

// TestZeroTraceContextAddsNoPayload: an untraced scan carries no trace
// bytes, nor does a context without a span; a traced scan carries exactly
// its trace ID and span ID.
func TestZeroTraceContextAddsNoPayload(t *testing.T) {
	feat := []float64{1, 2}
	checkSize(t, "untraced", &nearestRequest{Feat: feat}, requestSize(2, 0, false))
	checkSize(t, "no span", &nearestRequest{Feat: feat, TC: trace.Context{TraceID: "run"}}, requestSize(2, 0, false))
	checkSize(t, "traced", &nearestRequest{Feat: feat, TC: trace.Context{TraceID: "run", SpanID: 5}}, requestSize(2, 3, true))
}

// overLimitFrame is a header that declares one byte more than maxFrame.
func overLimitFrame() []byte {
	return binary.LittleEndian.AppendUint32(nil, maxFrame+1)
}

// FuzzWireFrame hardens both frame decoders: any input either fails with
// an error wrapping errFrame, or decodes to a message that re-encodes to
// the input's first frame byte for byte.
func FuzzWireFrame(f *testing.F) {
	scan := frameOf(f, &nearestRequest{ID: 1, M: 10, Feat: []float64{0.5, -2, 3}})
	f.Add(scan)
	f.Add(frameOf(f, &nearestRequest{ID: 2, M: 10, Feat: []float64{1}, TC: trace.Context{TraceID: "run", SpanID: 7}}))
	f.Add(frameOf(f, &nearestRequest{ID: 3, Stats: true, Rings: true}))
	f.Add(frameOf(f, &nearestResponse{ID: 3, Stats: []byte(`{"Snapshot":{},"Size":2,"Addr":"n"}`)}))
	f.Add(frameOf(f, &nearestResponse{ID: 4, Results: []Result{{ID: "v", Label: 1, Dist: 0.5}}}))
	f.Add(frameOf(f, &nearestResponse{ID: 5, Err: "node overloaded", Overloaded: true}))
	f.Add(overLimitFrame())
	f.Add(scan[:len(scan)-3])

	f.Fuzz(func(t *testing.T, data []byte) {
		body, err := readFrame(bufio.NewReader(bytes.NewReader(data)), nil)
		if err != nil {
			if len(data) > 0 && !errors.Is(err, errFrame) {
				t.Fatalf("readFrame: error %v does not wrap errFrame", err)
			}
			return
		}
		frame := data[:frameHeader+len(body)]
		if req, err := decodeRequest(body); err != nil {
			if !errors.Is(err, errFrame) {
				t.Fatalf("decodeRequest: error %v does not wrap errFrame", err)
			}
		} else if got := frameOf(t, &req); !bytes.Equal(got, frame) {
			t.Fatalf("request %+v re-encodes to\n% x\nnot\n% x", req, got, frame)
		}
		if resp, err := decodeResponse(body); err != nil {
			if !errors.Is(err, errFrame) {
				t.Fatalf("decodeResponse: error %v does not wrap errFrame", err)
			}
		} else if got := frameOf(t, &resp); !bytes.Equal(got, frame) {
			t.Fatalf("response %+v re-encodes to\n% x\nnot\n% x", resp, got, frame)
		}
	})
}

// BenchmarkWireRoundTrip encodes and decodes one request and its reply at
// the benchmark's traffic shape: feature dim 32, m 10.
func BenchmarkWireRoundTrip(b *testing.B) {
	req := nearestRequest{ID: 1, M: 10, Feat: make([]float64, 32)}
	resp := nearestResponse{ID: 1, Results: make([]Result, 10)}
	for i := range resp.Results {
		resp.Results[i] = Result{ID: fmt.Sprintf("v%05d", i), Label: i, Dist: float64(i)}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := decodeRequest(frameOf(b, &req)[frameHeader:]); err != nil {
			b.Fatal(err)
		}
		if _, err := decodeResponse(frameOf(b, &resp)[frameHeader:]); err != nil {
			b.Fatal(err)
		}
	}
}
