package retrieval

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"duo/internal/telemetry"
	"duo/internal/trace"
)

// Default wire-protocol deadlines. Queries embed on the client and scan an
// in-memory shard on the node, so seconds are already generous; the idle
// timeout only bounds how long a node keeps a silent connection around.
const (
	// DefaultCallTimeout bounds one client-side request/response exchange.
	DefaultCallTimeout = 10 * time.Second
	// DefaultIdleTimeout is how long a node waits for the next request on
	// a persistent connection before dropping it.
	DefaultIdleTimeout = 2 * time.Minute
	// DefaultWriteTimeout bounds writing one response on the node.
	DefaultWriteTimeout = 30 * time.Second
)

// ErrBadRequest is the typed error for a request the node refused as
// malformed: a negative m, or a query feature whose length is not the
// index dimension, or a frame that does not parse. The node answered, so
// it is alive and the connection stays in sync — BreakerTransport does not
// count it — and re-sending the same frame cannot succeed, so
// RetryTransport does not retry it. It crosses the wire as a reply flag.
var ErrBadRequest = errors.New("retrieval: bad request")

// NodeServerConfig parameterizes a NodeServer's deadlines and admission
// limits. The zero value selects the package defaults (and unbounded
// admission); negative durations disable the deadline.
type NodeServerConfig struct {
	// IdleTimeout is the per-request read deadline: the maximum wait for
	// the next complete request on a connection.
	IdleTimeout time.Duration
	// WriteTimeout is the per-response write deadline.
	WriteTimeout time.Duration
	// Trace, when non-nil, records one node.serve span per request. A
	// request carrying a coordinator span context parents the span
	// remotely under it (stitched back together by duotrace).
	Trace *trace.Tracer
	// Admission bounds concurrent request handling; excess load is shed
	// with ErrOverloaded instead of queueing without bound. The zero value
	// admits everything (the pre-overload behaviour).
	Admission AdmissionConfig
	// Telemetry, when non-nil, receives the admission counters under the
	// "node.admission" prefix.
	Telemetry *telemetry.Registry
}

func (c *NodeServerConfig) applyDefaults() {
	if c.IdleTimeout == 0 {
		c.IdleTimeout = DefaultIdleTimeout
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = DefaultWriteTimeout
	}
}

// NodeServer serves one shard over TCP. Requests on a connection are
// handled concurrently, gated by the admission config, and each reply
// echoes its request's ID.
type NodeServer struct {
	shard GalleryIndex
	ln    net.Listener
	cfg   NodeServerConfig
	adm   *admission

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// ServeNode starts serving the index on addr (use "127.0.0.1:0" for an
// ephemeral port) with default deadlines and returns immediately. Any
// GalleryIndex works: exact shards and product-quantized indexes share the
// wire protocol.
func ServeNode(addr string, shard GalleryIndex) (*NodeServer, error) {
	return ServeNodeConfig(addr, shard, NodeServerConfig{})
}

// ServeNodeConfig is ServeNode with explicit configuration.
func ServeNodeConfig(addr string, shard GalleryIndex, cfg NodeServerConfig) (*NodeServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("retrieval: listen %s: %w", addr, err)
	}
	cfg.applyDefaults()
	s := &NodeServer{
		shard: shard, ln: ln, cfg: cfg,
		adm:   newAdmission(cfg.Admission, resolveAdmissionTel(cfg.Telemetry, "node.admission")),
		conns: make(map[net.Conn]struct{}),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the server's listen address.
func (s *NodeServer) Addr() string { return s.ln.Addr().String() }

// AdmissionStats is a point-in-time snapshot of a NodeServer's admission
// accounting (the counter mirror lives under "node.admission" when the
// server has a telemetry registry).
type AdmissionStats struct {
	// Admitted counts requests that got an in-flight slot.
	Admitted int64
	// Sheds counts requests refused with ErrOverloaded.
	Sheds int64
	// HighWater is the peak concurrent in-flight count observed.
	HighWater int
}

// AdmissionStats returns the server's admission accounting snapshot.
func (s *NodeServer) AdmissionStats() AdmissionStats {
	return AdmissionStats{
		Admitted:  s.adm.Served(),
		Sheds:     s.adm.Sheds(),
		HighWater: s.adm.HighWater(),
	}
}

func (s *NodeServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *NodeServer) serveConn(conn net.Conn) {
	defer s.wg.Done()
	// handlers tracks this connection's in-flight request goroutines, so
	// the connection (and Close) waits for them before tearing down.
	var handlers sync.WaitGroup
	var wmu sync.Mutex
	defer func() {
		handlers.Wait()
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	r := bufio.NewReader(conn)
	var body []byte
	for {
		if s.cfg.IdleTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout)) //duolint:allow walltime socket deadlines are wall-clock by definition; no result bit depends on them
		}
		var err error
		if body, err = readFrame(r, body); err != nil {
			return // hung up, idled out, torn down, or an over-limit header
		}
		req, err := decodeRequest(body)
		var resp nearestResponse
		switch {
		case err != nil:
			// The frame was length-delimited, so the stream is still in
			// sync: refuse this one request and keep the connection.
			resp = nearestResponse{ID: req.ID, BadRequest: true, Err: err.Error()}
		case req.Stats:
			// Telemetry probe: answered inline from the read loop, BEFORE
			// admission — a snapshot is cheap, and observability must stay
			// readable while the node is shedding, or the fleet view goes
			// dark exactly when an operator needs it.
			resp = s.handleStats(req)
		default:
			// Sheds are answered immediately from the read loop (shedding
			// must stay cheap — that is its whole point); an admitted
			// request gets its own handler goroutine, which waits for a
			// slot if queued.
			tk := s.adm.reserve()
			if tk != ticketShed {
				handlers.Add(1)
				go func() {
					defer handlers.Done()
					if tk == ticketQueued {
						s.adm.acquire()
					}
					resp := s.handle(req)
					s.adm.release()
					s.writeResp(conn, &wmu, resp)
				}()
				continue
			}
			resp = nearestResponse{ID: req.ID, Err: "node overloaded", Overloaded: true}
		}
		if !s.writeResp(conn, &wmu, resp) {
			return
		}
	}
}

// handle serves one admitted request (span + shard scan); it never touches
// the connection. This is where untrusted frames meet the index, so the
// query shape is checked here: GalleryIndex.Nearest panics on a feature of
// the wrong dimension, and a handler goroutine has no recover.
func (s *NodeServer) handle(req nearestRequest) nearestResponse {
	sp := s.cfg.Trace.StartCtx(req.TC, "node.serve")
	sp.SetInt("m", int64(req.M))
	resp := nearestResponse{ID: req.ID}
	switch dim := s.shard.Dim(); {
	case req.M < 0:
		resp.Err, resp.BadRequest = fmt.Sprintf("negative m %d", req.M), true
	case len(req.Feat) == 0 || (dim > 0 && len(req.Feat) != dim):
		resp.Err, resp.BadRequest = fmt.Sprintf("query dim %d, index dim %d", len(req.Feat), dim), true
	default:
		resp.Results = s.shard.Nearest(req.Feat, req.M)
	}
	sp.SetInt("results", int64(len(resp.Results)))
	if resp.Err != "" {
		sp.SetStr("error", resp.Err)
	}
	sp.End()
	return resp
}

// handleStats answers a telemetry probe with the node's NodeStats JSON; a
// node without telemetry reports an empty snapshot (the merge identity).
func (s *NodeServer) handleStats(req nearestRequest) nearestResponse {
	snap := s.cfg.Telemetry.Snapshot()
	if !req.Rings {
		snap.Rings = nil
	}
	payload, err := json.Marshal(NodeStats{Snapshot: snap, Size: s.shard.Size(), Addr: s.Addr()})
	if err != nil {
		return nearestResponse{ID: req.ID, Err: err.Error()}
	}
	return nearestResponse{ID: req.ID, Stats: payload}
}

// writeResp sends one reply frame as a single Write under the
// connection's write mutex (frames must not interleave) and write
// deadline; a reply past the frame limit (an absurd m on a large shard)
// goes out as ErrBadRequest instead. A failed write closes the connection
// so the read loop notices promptly; false means the connection is gone.
func (s *NodeServer) writeResp(conn net.Conn, wmu *sync.Mutex, resp nearestResponse) bool {
	frame, err := appendResponse(nil, &resp)
	if err != nil {
		frame, _ = appendResponse(nil, &nearestResponse{ID: resp.ID, BadRequest: true, Err: err.Error()})
	}
	wmu.Lock()
	defer wmu.Unlock()
	if s.cfg.WriteTimeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout)) //duolint:allow walltime socket deadlines are wall-clock by definition; no result bit depends on them
	}
	if _, err := conn.Write(frame); err != nil {
		conn.Close()
		return false
	}
	return true
}

// Close stops accepting, tears down open connections, and waits for the
// handlers to finish.
func (s *NodeServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

// TCPConfig parameterizes a TCPTransport.
type TCPConfig struct {
	// Timeout bounds one request/response exchange, including the dial
	// (≤ 0 disables deadlines; DialNode uses DefaultCallTimeout).
	Timeout time.Duration
	// Conns is the connection-pool size (default 1). Requests multiplex
	// over every connection concurrently either way; a pool only adds
	// parallel TCP streams under heavy fan-out.
	Conns int
}

func (c *TCPConfig) applyDefaults() {
	if c.Conns <= 0 {
		c.Conns = 1
	}
}

// muxReply carries a matched response (or the connection's fatal error)
// back to the waiting caller.
type muxReply struct {
	resp nearestResponse
	err  error
}

// muxConn is one multiplexed connection: a dedicated reader goroutine
// decodes reply frames and hands each to its waiting caller by request ID.
// A reply body that does not parse fails only its call. A transport error
// (timeout, reset, over-limit header) leaves the stream out of sync and
// kills the connection; so does a reply whose ID no call is waiting for.
type muxConn struct {
	conn net.Conn
	wmu  sync.Mutex // frames must not interleave

	mu      sync.Mutex
	pending map[uint64]chan muxReply
	dead    bool
}

// dialMux establishes one multiplexed connection and starts its reader.
func dialMux(addr string, timeout time.Duration) (*muxConn, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("retrieval: dial %s: %w", addr, err)
	}
	c := &muxConn{conn: conn, pending: make(map[uint64]chan muxReply)}
	go c.readLoop()
	return c, nil
}

func (c *muxConn) readLoop() {
	r := bufio.NewReader(c.conn)
	var body []byte
	for {
		var err error
		if body, err = readFrame(r, body); err != nil {
			c.fail(fmt.Errorf("retrieval: recv: %w", err))
			return
		}
		resp, err := decodeResponse(body)
		if !c.deliver(resp.ID, muxReply{resp: resp, err: err}) {
			c.fail(fmt.Errorf("retrieval: recv: reply ID %d matches no pending call", resp.ID))
			return
		}
	}
}

// deliver routes one decoded reply to the call waiting for id; false means
// no call is waiting for it.
func (c *muxConn) deliver(id uint64, reply muxReply) bool {
	c.mu.Lock()
	ch, ok := c.pending[id]
	delete(c.pending, id)
	c.mu.Unlock()
	if ok {
		ch <- reply
	}
	return ok
}

// fail marks the connection dead, closes it, and errors out every waiter.
func (c *muxConn) fail(err error) {
	c.mu.Lock()
	if c.dead {
		c.mu.Unlock()
		return
	}
	c.dead = true
	pend := c.pending
	c.pending = make(map[uint64]chan muxReply)
	c.mu.Unlock()
	c.conn.Close()
	for _, ch := range pend {
		ch <- muxReply{err: err}
	}
}

func (c *muxConn) broken() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dead
}

// call registers a reply channel for the request ID (buffered, so the
// reader never blocks on a caller that timed out), then writes the frame
// under the write mutex. Registration comes first because the reply may
// arrive as soon as the request is on the wire. A failed send fails the
// connection. A request past the frame limit is refused as ErrBadRequest.
func (c *muxConn) call(req *nearestRequest, timeout time.Duration) (chan muxReply, error) {
	frame, err := appendRequest(nil, req)
	if err != nil {
		return nil, fmt.Errorf("retrieval: send: %w: %w", ErrBadRequest, err)
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	ch := make(chan muxReply, 1)
	c.mu.Lock()
	if c.dead {
		c.mu.Unlock()
		return nil, errors.New("retrieval: send: connection lost")
	}
	c.pending[req.ID] = ch
	c.mu.Unlock()
	if timeout > 0 {
		c.conn.SetWriteDeadline(time.Now().Add(timeout)) //duolint:allow walltime socket deadlines are wall-clock by definition; no result bit depends on them
	}
	if _, err := c.conn.Write(frame); err != nil {
		err = fmt.Errorf("retrieval: send: %w", err)
		c.fail(err)
		return nil, err
	}
	return ch, nil
}

// TCPTransport is the coordinator-side client for a TCP data node. It is
// safe for concurrent use: requests carry IDs and multiplex over a small
// connection pool, so concurrent callers dispatch in parallel instead of
// serializing on one stream.
//
// Every call runs under a deadline, and any transport-level error
// (timeout, broken pipe, over-limit header) discards the affected connection:
// in-flight calls on it fail, and the next call transparently redials
// instead of waiting on a stream that is out of sync.
type TCPTransport struct {
	addr   string
	cfg    TCPConfig
	nextID atomic.Uint64

	mu         sync.Mutex
	slots      []*muxConn
	dialed     []bool // slot ever dialed (redials count as reconnects)
	rr         int
	closed     bool
	reconnects int64
}

var _ Transport = (*TCPTransport)(nil)
var _ StatsPuller = (*TCPTransport)(nil)

// DialNode connects to a NodeServer with the default per-call deadline.
func DialNode(addr string) (*TCPTransport, error) {
	return DialNodeConfig(addr, TCPConfig{Timeout: DefaultCallTimeout})
}

// DialNodeConfig connects to a NodeServer with full transport
// configuration; the first pool connection is dialed eagerly so
// configuration errors surface at construction.
func DialNodeConfig(addr string, cfg TCPConfig) (*TCPTransport, error) {
	cfg.applyDefaults()
	t := &TCPTransport{
		addr: addr, cfg: cfg,
		slots:  make([]*muxConn, cfg.Conns),
		dialed: make([]bool, cfg.Conns),
	}
	c, err := dialMux(addr, t.dialTimeout())
	if err != nil {
		return nil, err
	}
	t.slots[0] = c
	t.dialed[0] = true
	return t, nil
}

// Reconnects returns how many times the transport re-established a
// connection after a transport error (initial pool dials don't count).
func (t *TCPTransport) Reconnects() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.reconnects
}

func (t *TCPTransport) dialTimeout() time.Duration {
	if t.cfg.Timeout > 0 {
		return t.cfg.Timeout
	}
	return DefaultCallTimeout
}

// slot picks the next pool connection round-robin, redialing dead slots.
func (t *TCPTransport) slot() (*muxConn, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, errors.New("retrieval: transport closed")
	}
	i := t.rr % len(t.slots)
	t.rr++
	c := t.slots[i]
	if c == nil || c.broken() {
		nc, err := dialMux(t.addr, t.dialTimeout())
		if err != nil {
			return nil, err
		}
		if t.dialed[i] {
			t.reconnects++
		}
		t.dialed[i] = true
		t.slots[i] = nc
		c = nc
	}
	return c, nil
}

// Nearest implements Transport.
func (t *TCPTransport) Nearest(feat []float64, m int) ([]Result, error) {
	return t.NearestTraced(trace.Context{}, feat, m)
}

// roundTrip sends one request over a pool connection and waits for its
// reply under the per-call deadline. It assigns the request's mux ID and
// is the shared exchange path for scans (NearestTraced) and telemetry
// probes (Stats) — one deadline/failure discipline for both. A refusal
// (shed, bad request, node error) arrives as a complete reply: the stream
// is in sync and the connection stays up, only this request failed.
func (t *TCPTransport) roundTrip(req *nearestRequest) (nearestResponse, error) {
	c, err := t.slot()
	if err != nil {
		return nearestResponse{}, err
	}
	req.ID = t.nextID.Add(1)
	ch, err := c.call(req, t.cfg.Timeout)
	if err != nil {
		return nearestResponse{}, err
	}
	var reply muxReply
	if t.cfg.Timeout > 0 {
		timer := time.NewTimer(t.cfg.Timeout) //duolint:allow walltime per-call response deadline; replaces the old conn-wide SetDeadline, no result bit depends on it
		select {
		case reply = <-ch:
			timer.Stop()
		case <-timer.C:
			// A response deadline is a transport error: the stream may now
			// hold a stale reply we'd mismatch, so the connection dies with
			// every other call in flight on it — same blast radius as the old
			// conn-wide SetDeadline.
			err := fmt.Errorf("retrieval: recv %s: deadline exceeded after %v", t.addr, t.cfg.Timeout)
			c.fail(err)
			reply = muxReply{err: err}
		}
	} else {
		reply = <-ch
	}
	switch resp := reply.resp; {
	case reply.err != nil:
		return resp, reply.err
	case resp.Overloaded:
		return resp, fmt.Errorf("retrieval: node %s: %w", t.addr, ErrOverloaded)
	case resp.BadRequest:
		return resp, fmt.Errorf("retrieval: node %s: %w: %s", t.addr, ErrBadRequest, resp.Err)
	case resp.Err != "":
		return resp, fmt.Errorf("retrieval: node error: %s", resp.Err)
	}
	return reply.resp, nil
}

// NearestTraced implements TracedTransport: the span context rides the
// request frame, so a traced node server parents its node.serve span under
// the coordinator's node span. A zero context adds nothing to the frame.
func (t *TCPTransport) NearestTraced(tc trace.Context, feat []float64, m int) ([]Result, error) {
	resp, err := t.roundTrip(&nearestRequest{Feat: feat, M: m, TC: tc})
	if err != nil {
		return nil, err
	}
	return resp.Results, nil
}

// Stats implements StatsPuller over the wire. The probe shares the scan
// path's connections and deadlines but bypasses node-side admission, so
// it answers even while the node sheds. A reply without a stats payload
// maps to ErrStatsUnsupported, never to an invented empty snapshot.
func (t *TCPTransport) Stats(includeRings bool) (NodeStats, error) {
	resp, err := t.roundTrip(&nearestRequest{Stats: true, Rings: includeRings})
	if err != nil {
		return NodeStats{}, err
	}
	if resp.Stats == nil {
		return NodeStats{}, fmt.Errorf("retrieval: node %s: %w", t.addr, ErrStatsUnsupported)
	}
	var st NodeStats
	if err := json.Unmarshal(resp.Stats, &st); err != nil || st.Snapshot == nil {
		return NodeStats{}, fmt.Errorf("retrieval: node %s: stats payload without a snapshot (%v)", t.addr, err)
	}
	return st, nil
}

// Close implements Transport: every pool connection dies, failing any
// in-flight calls.
func (t *TCPTransport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	slots := append([]*muxConn(nil), t.slots...)
	t.mu.Unlock()
	for _, c := range slots {
		if c != nil {
			c.fail(errors.New("retrieval: transport closed"))
		}
	}
	return nil
}
