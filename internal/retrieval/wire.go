package retrieval

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"duo/internal/trace"
)

// The TCP wire protocol between the coordinator and a data node, and the
// only code that knows its layout. A frame is a little-endian uint32 body
// length, then the body; a str is a u32 length, then the bytes:
//
//	request: kind u8 | id u64 | m i64 | [trace id str | span id u64] | dim u32 | dim × f64
//	reply:   id u64 | flags u8 | err str | (n u32 | n × (id str | label i64 | dist f64) | NodeStats JSON)
//
// The kind marks a stats probe, its rings, and the trace context, which
// rides only when set; the JSON replaces the results under the stats flag.
// Every process in a fleet is one build, so there is no version negotiation.
const (
	frameHeader = 4
	maxFrame    = 16 << 20 // body bytes; checked before a reader allocates

	kindStats, kindRings, kindTraced          = 1, 2, 4
	respOverloaded, respBadRequest, respStats = 1, 2, 4
)

// errFrame is wrapped by every error for a frame the codec cannot handle.
var errFrame = errors.New("retrieval: malformed wire frame")

// nearestRequest is one request frame. A reply echoes its request's ID, so
// requests multiplex over a connection. Stats makes it a telemetry probe
// (stats.go); TC is the coordinator's span, the parent of node-side spans.
type nearestRequest struct {
	ID           uint64
	Stats, Rings bool
	M            int
	TC           trace.Context
	Feat         []float64
}

// nearestResponse is one reply frame. Overloaded and BadRequest carry
// ErrOverloaded and ErrBadRequest, re-wrapped by the client; Stats is a
// probe's JSON payload, nil on a scan reply.
type nearestResponse struct {
	ID                     uint64
	Overloaded, BadRequest bool
	Err                    string
	Results                []Result
	Stats                  []byte
}

func appendRequest(dst []byte, req *nearestRequest) ([]byte, error) {
	start := len(dst)
	dst = slices.Grow(dst, 37+len(req.TC.TraceID)+8*len(req.Feat)) // fixed fields 25, trace 12
	kind := bit(req.Stats, kindStats) | bit(req.Rings, kindRings) | bit(req.TC.Valid(), kindTraced)
	dst = binary.LittleEndian.AppendUint64(append(dst, 0, 0, 0, 0, kind), req.ID)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(req.M))
	if req.TC.Valid() {
		dst = binary.LittleEndian.AppendUint64(appendString(dst, req.TC.TraceID), req.TC.SpanID)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(req.Feat)))
	for _, v := range req.Feat {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return endFrame(dst, start)
}

func appendResponse(dst []byte, resp *nearestResponse) ([]byte, error) {
	start := len(dst)
	dst = slices.Grow(dst, 21+len(resp.Err)+len(resp.Stats)+40*len(resp.Results)) // a result is 20 + its ID
	dst = binary.LittleEndian.AppendUint64(append(dst, 0, 0, 0, 0), resp.ID)
	flags := bit(resp.Overloaded, respOverloaded) | bit(resp.BadRequest, respBadRequest) | bit(resp.Stats != nil, respStats)
	dst = appendString(append(dst, flags), resp.Err)
	if resp.Stats != nil {
		return endFrame(append(dst, resp.Stats...), start)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(resp.Results)))
	for _, r := range resp.Results {
		dst = binary.LittleEndian.AppendUint64(appendString(dst, r.ID), uint64(r.Label))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.Dist))
	}
	return endFrame(dst, start)
}

func bit(set bool, flag byte) byte {
	if set {
		return flag
	}
	return 0
}

func appendString(dst []byte, s string) []byte {
	return append(binary.LittleEndian.AppendUint32(dst, uint32(len(s))), s...)
}

// endFrame fills in the length header of the frame at dst[start:], or
// drops the frame when its body is past the limit.
func endFrame(dst []byte, start int) ([]byte, error) {
	n := len(dst) - start - frameHeader
	if n > maxFrame {
		return dst[:start], fmt.Errorf("%w: %d-byte body past the %d-byte limit", errFrame, n, maxFrame)
	}
	binary.LittleEndian.PutUint32(dst[start:], uint32(n))
	return dst, nil
}

// readFrame reads one frame and returns its body, in buf when buf is large
// enough. The header is checked against maxFrame before anything is
// allocated.
func readFrame(r *bufio.Reader, buf []byte) ([]byte, error) {
	var h [frameHeader]byte
	if _, err := io.ReadFull(r, h[:]); err != nil {
		return nil, truncated(err, false)
	}
	n := binary.LittleEndian.Uint32(h[:])
	if n > maxFrame {
		return nil, fmt.Errorf("%w: %d-byte body past the %d-byte limit", errFrame, n, maxFrame)
	}
	buf = slices.Grow(buf[:0], int(n))[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, truncated(err, true)
	}
	return buf, nil
}

// truncated wraps an end of stream inside a frame in errFrame (past the
// header, even a clean io.EOF is one); other errors pass through.
func truncated(err error, pastHeader bool) error {
	if err == io.ErrUnexpectedEOF || pastHeader && err == io.EOF {
		return fmt.Errorf("%w: truncated frame: %w", errFrame, io.ErrUnexpectedEOF)
	}
	return err
}

// decodeRequest parses a request body. On error the request keeps the ID
// when the body holds one, so the node can refuse exactly that request.
func decodeRequest(body []byte) (nearestRequest, error) {
	r := wireReader{b: body}
	kind := r.u8()
	req := nearestRequest{ID: r.u64(), M: int(r.u64()), Stats: kind&kindStats != 0, Rings: kind&kindRings != 0}
	if kind&kindTraced != 0 {
		req.TC = trace.Context{TraceID: r.str(), SpanID: r.u64()}
	}
	if n := r.count(8); n > 0 {
		req.Feat = make([]float64, n)
		for i := range req.Feat {
			req.Feat[i] = math.Float64frombits(r.u64())
		}
	}
	if kind&^(kindStats|kindRings|kindTraced) != 0 || (kind&kindTraced != 0) != req.TC.Valid() {
		r.fail(fmt.Sprintf("unknown kind %#x, or traced without a span", kind))
	}
	return req, r.end()
}

// decodeResponse parses a reply body, keeping the ID it could read on error.
func decodeResponse(body []byte) (nearestResponse, error) {
	r := wireReader{b: body}
	id, flags := r.u64(), r.u8()
	resp := nearestResponse{ID: id, Err: r.str(), Overloaded: flags&respOverloaded != 0, BadRequest: flags&respBadRequest != 0}
	if flags&respStats != 0 {
		resp.Stats = append([]byte{}, r.take(uint64(len(r.b)))...)
	} else if n := r.count(4 + 8 + 8); n > 0 {
		resp.Results = make([]Result, n)
		for i := range resp.Results {
			resp.Results[i] = Result{ID: r.str(), Label: int(r.u64()), Dist: math.Float64frombits(r.u64())}
		}
	}
	if flags&^(respOverloaded|respBadRequest|respStats) != 0 {
		r.fail(fmt.Sprintf("unknown flags %#x", flags))
	}
	return resp, r.end()
}

// wireReader walks a frame body. The first failure sticks: later reads
// consume nothing and return zeros, and end reports the failure.
type wireReader struct {
	b   []byte
	err error
}

func (r *wireReader) take(n uint64) []byte {
	if r.err != nil || n > uint64(len(r.b)) {
		r.fail("truncated body")
		return make([]byte, min(n, 8)) // zeros for the fixed-width reads
	}
	p := r.b[:n]
	r.b = r.b[n:]
	return p
}

func (r *wireReader) u8() byte    { return r.take(1)[0] }
func (r *wireReader) u32() uint64 { return uint64(binary.LittleEndian.Uint32(r.take(4))) }
func (r *wireReader) u64() uint64 { return binary.LittleEndian.Uint64(r.take(8)) }
func (r *wireReader) str() string { return string(r.take(r.u32())) }

// count reads an element count, bounded by the bytes left at size each.
func (r *wireReader) count(size int) int {
	if n := r.u32(); n <= uint64(len(r.b)/size) {
		return int(n)
	}
	r.fail(fmt.Sprintf("count past the %d bytes left", len(r.b)))
	return 0
}

func (r *wireReader) fail(why string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", errFrame, why)
	}
}

func (r *wireReader) end() error {
	if len(r.b) != 0 {
		r.fail(fmt.Sprintf("%d trailing bytes", len(r.b)))
	}
	return r.err
}
