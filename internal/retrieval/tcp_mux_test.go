package retrieval

// Integration tests for the multiplexed TCP transport and the admission-
// gated node server: concurrent in-flight dispatch over a pooled client,
// ErrOverloaded crossing the wire as a typed, connection-preserving error,
// and a reply that matches no pending call failing its connection.

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"duo/internal/models"
)

func TestTCPTransportConcurrentMultiplexedCalls(t *testing.T) {
	m, c := chaosSystem(t)
	shard := NewShard(m, c.Train)
	srv, err := ServeNode("127.0.0.1:0", shard)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tr, err := DialNodeConfig(srv.Addr(), TCPConfig{Timeout: 10 * time.Second, Conns: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	// Distinct queries per worker, so a mismatched (misrouted) response is
	// detectable: every reply must equal the shard's direct answer for THE
	// SAME query — out-of-order delivery with ID matching guarantees it.
	queries := make([][]float64, len(c.Test))
	want := make([][]Result, len(c.Test))
	for i, v := range c.Test {
		queries[i] = models.Embed(m, v).Data()
		want[i] = shard.Nearest(queries[i], 4)
	}

	const workers, rounds = 8, 20
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				qi := (w + r) % len(queries)
				rs, err := tr.Nearest(queries[qi], 4)
				if err != nil {
					errs <- fmt.Errorf("worker %d round %d: %w", w, r, err)
					return
				}
				if !reflect.DeepEqual(rs, want[qi]) {
					errs <- fmt.Errorf("worker %d round %d: response for query %d mismatched (misrouted reply?)", w, r, qi)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if tr.Reconnects() != 0 {
		t.Errorf("reconnects = %d, want 0 under healthy concurrent load", tr.Reconnects())
	}
}

func TestTCPServerShedsOverloadAcrossWire(t *testing.T) {
	m, c := chaosSystem(t)
	shard := NewShard(m, c.Train)
	srv, err := ServeNodeConfig("127.0.0.1:0", shard, NodeServerConfig{
		Admission: AdmissionConfig{MaxInFlight: 1, MaxQueue: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tr, err := DialNodeConfig(srv.Addr(), TCPConfig{Timeout: 10 * time.Second, Conns: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	feat := models.Embed(m, c.Test[0]).Data()

	// Hammer a 1-slot server from 8 workers until a shed is observed (in
	// practice the very first concurrent burst sheds), then drain.
	var served, shed, unexpected atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, err := tr.Nearest(feat, 4)
				switch {
				case err == nil:
					served.Add(1)
				case errors.Is(err, ErrOverloaded):
					shed.Add(1)
				default:
					unexpected.Add(1)
					return
				}
			}
		}()
	}
	deadline := time.Now().Add(10 * time.Second)                                    //duolint:allow walltime test watchdog bound on a load generator; never limits the pass path
	for shed.Load() == 0 && time.Now().Before(deadline) && unexpected.Load() == 0 { //duolint:allow walltime test watchdog bound on a load generator; never limits the pass path
		time.Sleep(time.Millisecond) //duolint:allow walltime polling cadence of the test watchdog only
	}
	close(stop)
	wg.Wait()

	if n := unexpected.Load(); n != 0 {
		t.Fatalf("%d calls failed with a non-overload error", n)
	}
	if shed.Load() == 0 {
		t.Fatal("1-slot server never shed under 8-way concurrent load")
	}
	st := srv.AdmissionStats()
	if st.Sheds != shed.Load() {
		t.Errorf("server sheds = %d, client observed %d", st.Sheds, shed.Load())
	}
	if st.Admitted != served.Load() {
		t.Errorf("server admitted = %d, client served %d", st.Admitted, served.Load())
	}
	if st.HighWater > 1 {
		t.Errorf("in-flight high-water = %d, want ≤ 1 (MaxInFlight)", st.HighWater)
	}
	// Sheds are well-framed responses: the pool must not have burned a
	// single connection on them, and the node must still serve.
	if tr.Reconnects() != 0 {
		t.Errorf("reconnects = %d, want 0 — sheds must keep the connection", tr.Reconnects())
	}
	if _, err := tr.Nearest(feat, 4); err != nil {
		t.Errorf("call after load drained: %v", err)
	}
}

// misreplyingNode answers every request as a node would, except that on
// its first connection each reply carries badID(req) instead of req.ID.
func misreplyingNode(t *testing.T, badID func(req nearestRequest) uint64) (addr string, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for first := true; ; first = false {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func(first bool) {
				defer wg.Done()
				defer conn.Close()
				r := bufio.NewReader(conn)
				for {
					body, err := readFrame(r, nil)
					if err != nil {
						return
					}
					req, err := decodeRequest(body)
					if err != nil {
						return
					}
					resp := nearestResponse{ID: req.ID, Results: []Result{{ID: "v", Label: req.M}}}
					if first {
						resp.ID = badID(req)
					}
					frame, err := appendResponse(nil, &resp)
					if err != nil || writeAll(conn, frame) != nil {
						return
					}
				}
			}(first)
		}
	}()
	return ln.Addr().String(), func() { ln.Close(); wg.Wait() }
}

func writeAll(conn net.Conn, b []byte) error {
	_, err := conn.Write(b)
	return err
}

// TestUnmatchedReplyFailsConnection: a reply whose ID matches no pending
// call is a protocol error. The waiting call fails at once instead of
// sitting out its deadline or taking someone else's reply, and the next
// call redials.
func TestUnmatchedReplyFailsConnection(t *testing.T) {
	for _, tc := range []struct {
		name string
		id   func(req nearestRequest) uint64
	}{
		{"id0", func(nearestRequest) uint64 { return 0 }},
		{"unknown", func(req nearestRequest) uint64 { return req.ID + 1000 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr, stop := misreplyingNode(t, tc.id)
			defer stop()
			const timeout = 30 * time.Second
			tr, err := DialNodeConfig(addr, TCPConfig{Timeout: timeout})
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()

			start := time.Now() //duolint:allow walltime test bound on how promptly a protocol error surfaces; no result bit depends on it
			if rs, err := tr.Nearest([]float64{1}, 3); err == nil {
				t.Fatalf("mismatched reply was delivered: %+v", rs)
			}
			if took := time.Since(start); took > timeout/10 { //duolint:allow walltime test bound on how promptly a protocol error surfaces; no result bit depends on it
				t.Errorf("error took %v, want well inside the %v call deadline", took, timeout)
			}
			if rs, err := tr.Nearest([]float64{1}, 4); err != nil || len(rs) != 1 || rs[0].Label != 4 {
				t.Fatalf("call after redial = %+v, %v; want its own reply", rs, err)
			}
			// The node answers the probe like a scan, without a payload.
			if _, err := tr.Stats(false); !errors.Is(err, ErrStatsUnsupported) {
				t.Errorf("stats reply without a payload: err = %v, want ErrStatsUnsupported", err)
			}
			if got := tr.Reconnects(); got != 1 {
				t.Errorf("reconnects = %d, want 1", got)
			}
		})
	}
}

// bigIndex answers every query with m results whose IDs are all id.
type bigIndex struct{ id string }

func (b bigIndex) Nearest(feat []float64, m int) []Result {
	rs := make([]Result, m)
	for i := range rs {
		rs[i].ID = b.id
	}
	return rs
}

func (bigIndex) Size() int { return 1 << 20 }
func (bigIndex) Dim() int  { return 1 }

// TestOverLimitFramesCostOneCall: a reply past the frame limit (an absurd
// m on a large index) is refused as ErrBadRequest, and a request past it is
// refused before it is sent. Neither costs the connection.
func TestOverLimitFramesCostOneCall(t *testing.T) {
	srv, err := ServeNode("127.0.0.1:0", bigIndex{id: strings.Repeat("x", 1<<20)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tr, err := DialNode(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if _, err := tr.Nearest([]float64{1}, maxFrame>>20+1); !errors.Is(err, ErrBadRequest) {
		t.Errorf("over-limit reply: err = %v, want ErrBadRequest", err)
	}
	if _, err := tr.Nearest(make([]float64, maxFrame/8+1), 1); !errors.Is(err, ErrBadRequest) {
		t.Errorf("over-limit request: err = %v, want ErrBadRequest", err)
	}
	if rs, err := tr.Nearest([]float64{1}, 2); err != nil || len(rs) != 2 {
		t.Errorf("call after over-limit frames = %d results, %v", len(rs), err)
	}
	if n := tr.Reconnects(); n != 0 {
		t.Errorf("%d reconnects: an over-limit frame must not cost the connection", n)
	}
}
