package dist

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"stencilabft/internal/num"
	"stencilabft/internal/telemetry"
)

// TCPConfig configures a TCPTransport: the rank-grid geometry it spans, the
// subset of ranks this process hosts, and the rendezvous bootstrap that
// turns N independent processes into one wired cluster.
type TCPConfig struct {
	// RanksX, RanksY shape the Cartesian rank grid (columns × rows), the
	// same convention as Decomp; Ring closes both axes into a torus
	// (periodic global boundaries).
	RanksX, RanksY int
	Ring           bool

	// LocalRanks lists the ranks this process hosts (each rank of the grid
	// must be hosted by exactly one process across the cluster). Nil hosts
	// every rank in-process — halo traffic still crosses real loopback
	// sockets, which is what lets one process certify the backend.
	LocalRanks []int

	// Rendezvous is the host:port every process meets at to exchange data
	// listener addresses. The process hosting rank 0 binds and serves it;
	// the others dial it with retry until DialTimeout. It may be empty only
	// when LocalRanks covers the whole grid (nothing to exchange).
	Rendezvous string

	// RendezvousListener optionally supplies a pre-bound listener for the
	// rendezvous service instead of binding Rendezvous — how tests avoid
	// bind races on a picked port. Only the rank-0 host may set it.
	RendezvousListener net.Listener

	// Bind is the address the per-process halo data listener binds
	// (default "127.0.0.1:0"). Use a routable interface ("0.0.0.0:0") for
	// multi-host LAN clusters.
	Bind string

	// DialTimeout bounds the whole bootstrap: rendezvous dial-with-retry,
	// the wait for all ranks to register, and the per-neighbour data
	// connections. Default 30s.
	DialTimeout time.Duration

	// IOTimeout bounds each halo receive and each barrier-token wait once
	// the cluster is running, so a hung peer surfaces as a classified
	// timeout fault instead of a deadlock. Default 2m; negative disables
	// the bound.
	IOTimeout time.Duration

	// DeathDeadline bounds transient-fault healing: how long a broken edge
	// may spend reconnecting (sender side) or waiting for its peer to
	// reconnect (receiver side) before the edge is declared permanently
	// dead and the buddy-recovery ladder takes over. Default 15s; negative
	// disables healing entirely — the first disconnect is fatal, the
	// pre-healing behaviour.
	DeathDeadline time.Duration

	// ResendWindow is how many sealed data frames each outbound edge
	// retains for replay after a reconnect. A window too small to cover
	// the frames in flight when a connection died makes the edge
	// unhealable (it is then declared dead). Default 64 — an order of
	// magnitude above one barrier generation's traffic per edge.
	ResendWindow int

	// KeepalivePeriod is the idle interval after which an outbound edge
	// writes a heartbeat frame, so a silently severed connection is
	// discovered (and healed) between halo exchanges instead of at the
	// next one. Default DeathDeadline/3 when healing is enabled; negative
	// disables keepalives.
	KeepalivePeriod time.Duration

	// WrapConn, when non-nil, wraps every outbound data connection as it
	// is established — at bootstrap and on every reconnect. This is the
	// chaos-injection seam: a wrapper that drops, corrupts, duplicates,
	// reorders or kills frames exercises exactly the healing machinery a
	// flaky network would. from/to name the directed edge, d the direction
	// from sends toward.
	WrapConn func(conn net.Conn, from, to int, d Dir) net.Conn
}

// DefaultDeathDeadline is the TCPConfig.DeathDeadline a zero config gets:
// how long a broken edge may heal before its peer is classified dead.
// Exported because control-plane timeouts (the recovery coordinator's
// stall escalation) must outlast the detection cascade it implies.
const DefaultDeathDeadline = 15 * time.Second

const (
	defaultDialTimeout  = 30 * time.Second
	defaultIOTimeout    = 2 * time.Minute
	defaultResendWindow = 64
	dialRetryStep       = 20 * time.Millisecond
	reconnectBackoffMin = 10 * time.Millisecond
	reconnectBackoffMax = 640 * time.Millisecond
)

// withDefaults returns a copy of cfg with zero fields defaulted.
func (cfg TCPConfig) withDefaults() TCPConfig {
	if cfg.Bind == "" {
		cfg.Bind = "127.0.0.1:0"
	}
	if cfg.DialTimeout == 0 {
		cfg.DialTimeout = defaultDialTimeout
	}
	if cfg.IOTimeout == 0 {
		cfg.IOTimeout = defaultIOTimeout
	}
	if cfg.IOTimeout < 0 {
		cfg.IOTimeout = 0 // 0 means "no bound" internally
	}
	if cfg.DeathDeadline == 0 {
		cfg.DeathDeadline = DefaultDeathDeadline
	}
	if cfg.DeathDeadline < 0 {
		cfg.DeathDeadline = 0 // 0 means "healing disabled" internally
	}
	if cfg.ResendWindow == 0 {
		cfg.ResendWindow = defaultResendWindow
	}
	if cfg.KeepalivePeriod == 0 && cfg.DeathDeadline > 0 {
		cfg.KeepalivePeriod = cfg.DeathDeadline / 3
	}
	if cfg.KeepalivePeriod < 0 {
		cfg.KeepalivePeriod = 0
	}
	return cfg
}

// edgeKey identifies a directed halo edge from one rank's point of view:
// for inbound boxes, {rank, d} holds what rank's d-neighbour sent; for
// outbound edges, {rank, d} carries what rank sends toward d.
type edgeKey struct {
	rank int
	dir  Dir
}

// tokenMsg is a decoded barrier token.
type tokenMsg struct {
	gen   uint32
	round uint16
}

// classedError carries a FaultClass alongside a poison cause, so Recv and
// Barrier can classify the *Fault they raise from the box's stored error.
type classedError struct {
	class FaultClass
	err   error
}

func (e *classedError) Error() string { return e.err.Error() }
func (e *classedError) Unwrap() error { return e.err }

// classOf extracts the FaultClass a poison path attached to err.
func classOf(err error) FaultClass {
	var ce *classedError
	if errors.As(err, &ce) {
		return ce.class
	}
	return ClassUnknown
}

// edgeBox is the inbound queue of one directed edge. A connection-reader
// goroutine fills it; the owning rank drains it from Recv and Barrier.
//
// Unlike the pre-healing design, the binding between the box and its
// connection is not permanent: when a connection dies the box enters a
// grace period (the death deadline) during which a reconnecting peer may
// rebind it with a fresh hello and resume the sequence exactly where the
// old stream left off. Only deadline expiry — or a fault reconnection
// cannot heal — poisons the box: done closes and err holds the cause, so
// a blocked receiver wakes with a real, classified error instead of
// hanging.
type edgeBox[T num.Float] struct {
	halo chan []T
	tok  chan tokenMsg
	ck   chan ckptParcel[T] // buddy snapshots; at most one in flight per period

	// Halo and checkpoint traffic received on this edge (frames and
	// payload bytes), counted by the connection reader as frames land in
	// the box; dupFrames counts replayed data frames dropped by the
	// sequence dedup, crcErrors frames rejected by the wire checksum.
	framesRecv, bytesRecv atomic.Int64
	dupFrames, crcErrors  atomic.Int64

	mu         sync.Mutex
	err        error
	done       chan struct{}
	nextSeq    uint32        // next data-frame sequence expected; starts at 1
	reader     chan struct{} // closed when the currently bound reader exits; nil if none
	readerConn net.Conn      // the currently bound connection
	bindCount  int           // how many connections have ever bound this edge
	deathT     *time.Timer   // pending death-deadline poison after a disconnect
}

func newEdgeBox[T num.Float](tokCap int) *edgeBox[T] {
	return &edgeBox[T]{
		halo:    make(chan []T, 4),
		tok:     make(chan tokenMsg, tokCap),
		ck:      make(chan ckptParcel[T], 2),
		done:    make(chan struct{}),
		nextSeq: 1,
	}
}

// poison records the first error and wakes every blocked receiver. It
// reports whether this call was the one that poisoned the box, so fault
// paths can count poison events without double-counting repeats.
func (b *edgeBox[T]) poison(err error) bool {
	b.mu.Lock()
	first := b.err == nil
	if first {
		b.err = err
		close(b.done)
	}
	b.mu.Unlock()
	return first
}

func (b *edgeBox[T]) cause() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.err
}

// admitSeq applies the per-edge sequence discipline to one inbound data
// frame: in-order frames advance the expectation, already-seen frames are
// duplicates from a replay (dropped silently — dedup is what makes the
// resend window idempotent), and a gap means frames were lost on a live
// stream — unhealable in place, so the reader must force the sender to
// reconnect and replay by dropping the connection. seq 0 is unsequenced
// (hand-crafted frames in tests) and always admitted.
func (b *edgeBox[T]) admitSeq(seq uint32) (accept bool, gapErr error) {
	if seq == 0 {
		return true, nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch {
	case seq == b.nextSeq:
		b.nextSeq++
		return true, nil
	case seq < b.nextSeq:
		b.dupFrames.Add(1)
		return false, nil
	default:
		return false, fmt.Errorf("dist: sequence gap on the edge: got frame %d, expected %d (frames lost on the wire)", seq, b.nextSeq)
	}
}

// heartbeatGap checks a keepalive's sequence claim against the edge's
// expectation: the frame's seq is the sender's last sealed sequence
// number, so seq >= nextSeq means frames were sealed that never arrived —
// a silent loss on an otherwise idle edge. seq 0 is an unsequenced probe
// (nothing sealed yet) and always passes.
func (b *edgeBox[T]) heartbeatGap(seq uint32) error {
	if seq == 0 {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if seq >= b.nextSeq {
		return fmt.Errorf("dist: sequence gap on the edge: keepalive claims frame %d was sent, expected %d next (frames lost on the wire)", seq, b.nextSeq)
	}
	return nil
}

// boxWait is the socket backend's one blocking wait, shared by halo,
// checkpoint and barrier-token receives: c1 is the queue to drain on b1,
// and c2 the same queue on b2 when the caller accepts whichever of two
// edges delivers first (both nil otherwise). It returns the next queued
// value — second reports that it came from b2 — or, naming the edge that
// failed the same way, the error that poisoned it; a positive timeout
// expiring is a ClassTimeout error naming what was awaited. A value
// enqueued before its edge died is still delivered.
func boxWait[T num.Float, V any](timeout time.Duration, what string, b1 *edgeBox[T], c1 <-chan V, b2 *edgeBox[T], c2 <-chan V) (v V, second bool, err error) {
	select {
	case v = <-c1:
		return v, false, nil
	default:
	}
	var done2 <-chan struct{}
	if b2 != nil {
		select {
		case v = <-c2:
			return v, true, nil
		default:
		}
		done2 = b2.done
	}
	var expire <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		expire = t.C
	}
	select {
	case v = <-c1:
		return v, false, nil
	case v = <-c2:
		return v, true, nil
	case <-b1.done:
		select {
		case v = <-c1:
			return v, false, nil
		default:
			return v, false, b1.cause()
		}
	case <-done2:
		select {
		case v = <-c2:
			return v, true, nil
		default:
			return v, true, b2.cause()
		}
	case <-expire:
		return v, false, &classedError{class: ClassTimeout,
			err: fmt.Errorf("timed out after %v waiting for %s", timeout, what)}
	}
}

// outEdge is the outbound half of one directed edge: a persistent
// connection fed by a writer goroutine, so Send never blocks on the
// socket. The writer owns the edge's sequence counter and resend window —
// every data frame is stamped, sealed and retained before it hits the
// wire, so after a reconnect the writer can replay exactly the frames the
// receiver names in its hello acknowledgement.
type outEdge struct {
	ch       chan []byte
	conn     net.Conn
	addr     string
	from, to int
	dir      Dir
	hello    []byte // sealed hello frame, re-sent on every reconnect

	// Writer-goroutine-owned reliability state (no locks needed).
	seq     uint32   // last data sequence assigned
	flushed uint32   // last sequence successfully written to the current conn
	ring    [][]byte // sealed frames (seq-len(ring)+1 .. seq], oldest first
	dead    bool     // edge declared unhealable; frames are dropped

	// free recycles sealed frames evicted from the resend window back to
	// Send: once a frame falls out of the window it can never be replayed
	// again, so its buffer is fenced off from the writer goroutine and a
	// steady-state halo cadence reuses wire buffers instead of allocating
	// one per frame. Push and pop are both non-blocking — a full list drops
	// the buffer (GC takes it), an empty list makes Send allocate.
	free chan []byte

	// framesSent/bytesSent count halo traffic enqueued on the edge (payload
	// bytes, headers and tokens excluded, so counts compare across
	// backends); queueHW is the deepest writer-queue backlog observed at
	// any enqueue — tokens included, since backlog is a property of the
	// socket, not of what is queued. A non-trivial queueHW means the halo
	// cadence outran this socket. reconnects counts connections rebuilt
	// after an I/O fault, resends data frames replayed from the window.
	framesSent, bytesSent, queueHW atomic.Int64
	reconnects, resends            atomic.Int64
}

// noteDepth records the writer queue's depth after an enqueue, keeping the
// high-water mark.
func (oe *outEdge) noteDepth() {
	d := int64(len(oe.ch))
	for {
		cur := oe.queueHW.Load()
		if d <= cur || oe.queueHW.CompareAndSwap(cur, d) {
			return
		}
	}
}

// TCPTransport is the socket backend of the Transport seam: the same
// 4-direction halo contract and barrier semantics as ChanTransport, carried
// over per-neighbour persistent TCP connections so the ranks can be real OS
// processes on one host (loopback) or several (LAN). Construction is a
// rendezvous bootstrap — every process publishes its data listener address
// at cfg.Rendezvous, receives the full address book, and dials one
// persistent connection per outbound directed edge.
//
// The iteration barrier is a generation-tagged token exchange with the
// neighbours: each round every hosted rank posts a token on all its
// outbound edges, then collects one on all its inbound edges, and the
// number of rounds equals the rank graph's diameter — by induction a rank
// that completes round r knows every rank within distance r has entered the
// barrier, so completing all rounds is the global barrier the lockstep
// schedule needs. No coordinator, no extra connections: the tokens ride the
// halo edges.
//
// Transient wire faults are healed in place, invisibly to the ranks: every
// data frame carries a CRC-32C and a per-edge sequence number; a receiver
// that sees corruption, loss or reordering drops the connection, and the
// sender rebuilds it with bounded exponential backoff, re-handshakes
// (hello → helloAck naming the next expected sequence) and replays its
// resend window — exactly-once delivery restored, no recovery epoch,
// bit-identical results. Only a fault that outlives the death deadline
// becomes fatal: Recv and Barrier then panic with a classified *Fault
// naming the rank, direction, generation and class —
// MPI_ERRORS_ARE_FATAL semantics, which is what a bulk-synchronous stencil
// wants since no iteration can complete without its neighbours.
type TCPTransport[T num.Float] struct {
	geo       Decomp
	ring      bool
	local     []int
	rounds    int
	ioWait    atomic.Int64  // recv/write deadline in ns; 0 = unbounded
	deadline  time.Duration // death deadline; 0 = healing disabled
	keepalive time.Duration
	window    int
	wrapConn  func(conn net.Conn, from, to int, d Dir) net.Conn

	ln    net.Listener
	boxes map[edgeKey]*edgeBox[T]
	outs  map[edgeKey]*outEdge

	// Local-party cyclic barrier: the last hosted rank to arrive runs the
	// cross-process token exchange on behalf of all hosted ranks, then
	// releases the generation.
	bar *barrier

	dialRetries atomic.Int64 // bootstrap connect attempts beyond each first
	poisoned    atomic.Int64 // edges killed by I/O faults (Close's deliberate poisons excluded)

	gen    atomic.Uint32 // completed barrier generations, for error reports
	quit   chan struct{}
	flushq chan struct{} // closed first on Close: writers drain their queues
	closed atomic.Bool
	wg     sync.WaitGroup
	wgW    sync.WaitGroup // writer goroutines, joined before connections close

	connMu sync.Mutex
	conns  []net.Conn
}

// NewTCPTransport bootstraps the socket backend for cfg's rank grid and
// wires every directed halo edge of the hosted ranks. It returns once all
// rendezvous registration and per-neighbour connections are established, so
// a successful return means the hosted ranks can run.
func NewTCPTransport[T num.Float](cfg TCPConfig) (*TCPTransport[T], error) {
	cfg = cfg.withDefaults()
	geo := Decomp{RanksX: cfg.RanksX, RanksY: cfg.RanksY}
	n := geo.NumRanks()
	if cfg.RanksX < 1 || cfg.RanksY < 1 {
		return nil, fmt.Errorf("dist: tcp transport needs a rank grid with both factors >= 1 (got %dx%d)", cfg.RanksY, cfg.RanksX)
	}
	if n > 1<<16 {
		return nil, fmt.Errorf("dist: tcp transport rank ids are 16-bit on the wire; %d ranks exceed that", n)
	}
	local, err := resolveLocalRanks(cfg.LocalRanks, n)
	if err != nil {
		return nil, err
	}
	allLocal := len(local) == n
	if cfg.Rendezvous == "" && cfg.RendezvousListener == nil && !allLocal {
		return nil, fmt.Errorf("dist: tcp transport hosting %d of %d ranks needs a rendezvous address to find its peers", len(local), n)
	}

	t := &TCPTransport[T]{
		geo:       geo,
		ring:      cfg.Ring,
		local:     local,
		rounds:    geo.diameter(cfg.Ring),
		deadline:  cfg.DeathDeadline,
		keepalive: cfg.KeepalivePeriod,
		window:    cfg.ResendWindow,
		wrapConn:  cfg.WrapConn,
		bar:       newBarrier(len(local)),
		boxes:     make(map[edgeKey]*edgeBox[T]),
		outs:      make(map[edgeKey]*outEdge),
		quit:      make(chan struct{}),
		flushq:    make(chan struct{}),
	}
	t.bar.full = func(gen int) error {
		if err := t.exchangeTokens(uint32(gen)); err != nil {
			return err
		}
		t.gen.Store(uint32(gen + 1))
		return nil
	}
	t.ioWait.Store(int64(cfg.IOTimeout))

	ln, err := net.Listen("tcp", cfg.Bind)
	if err != nil {
		return nil, fmt.Errorf("dist: tcp transport data listener: %w", err)
	}
	t.ln = ln

	// Inbound boxes exist before any connection can arrive, so a frame for
	// an edge the geometry does not declare is a protocol error, never a
	// missing map entry. Token capacity covers the rounds of two
	// generations — a neighbour can run at most one generation ahead.
	tokCap := 2*t.rounds + 2
	for _, id := range local {
		for d := Dir(0); d < NumDirs; d++ {
			if _, ok := geo.Neighbor(id, d, cfg.Ring); ok {
				t.boxes[edgeKey{id, d}] = newEdgeBox[T](tokCap)
			}
		}
	}

	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		t.acceptLoop()
	}()

	book, err := t.exchangeAddresses(cfg)
	if err != nil {
		t.Close()
		return nil, err
	}
	if err := t.dialEdges(cfg, book); err != nil {
		t.Close()
		return nil, err
	}
	return t, nil
}

// Addr returns the data listener's address — where neighbours dial this
// process's hosted ranks.
func (t *TCPTransport[T]) Addr() string { return t.ln.Addr().String() }

// LocalRanks returns the ranks this transport hosts, sorted.
func (t *TCPTransport[T]) LocalRanks() []int { return append([]int(nil), t.local...) }

// exchangeAddresses produces the rank → data-listener address book. With
// every rank local the book is trivial; otherwise the rank-0 host serves
// the rendezvous point and everyone else registers with it.
func (t *TCPTransport[T]) exchangeAddresses(cfg TCPConfig) (map[int]string, error) {
	self := t.Addr()
	if cfg.Rendezvous == "" && cfg.RendezvousListener == nil {
		book := make(map[int]string, t.geo.NumRanks())
		for i := 0; i < t.geo.NumRanks(); i++ {
			book[i] = self
		}
		return book, nil
	}
	if t.local[0] == 0 {
		ln := cfg.RendezvousListener
		if ln == nil {
			var err error
			ln, err = net.Listen("tcp", cfg.Rendezvous)
			if err != nil {
				return nil, fmt.Errorf("dist: rendezvous listener %s: %w", cfg.Rendezvous, err)
			}
		}
		return serveRendezvous(ln, t.geo.NumRanks(), t.local, self, cfg.DialTimeout)
	}
	return registerAtRendezvous(cfg.Rendezvous, t.local, self, cfg.DialTimeout, &t.dialRetries)
}

// serveRendezvous runs the bootstrap service on the rank-0 host: collect a
// register frame from every peer process until all n ranks are accounted
// for, then publish the complete address book to every registered
// connection. The listener is closed before returning — rendezvous is a
// bootstrap, not a runtime dependency.
func serveRendezvous(ln net.Listener, n int, selfRanks []int, selfAddr string, deadline time.Duration) (map[int]string, error) {
	defer ln.Close()
	book := make(map[int]string, n)
	for _, id := range selfRanks {
		book[id] = selfAddr
	}
	expire := time.Now().Add(deadline)
	var peers []net.Conn
	defer func() {
		for _, c := range peers {
			c.Close()
		}
	}()
	// Bound the whole collection by the deadline: a TCP listener takes it
	// directly; any other (wrapped) listener gets a watchdog that closes
	// it at expiry, failing Accept with the same x-of-n diagnosis.
	tl, hasDeadline := ln.(*net.TCPListener)
	if !hasDeadline {
		watchdog := time.AfterFunc(time.Until(expire), func() { ln.Close() })
		defer watchdog.Stop()
	}
	for len(book) < n {
		if hasDeadline {
			tl.SetDeadline(expire)
		}
		conn, err := ln.Accept()
		if err != nil {
			return nil, fmt.Errorf("dist: rendezvous: %d of %d ranks registered before the %v deadline: %w", len(book), n, deadline, err)
		}
		conn.SetDeadline(expire)
		f, err := readFrame(conn)
		if err != nil || f.kind != frameRegister {
			// Not a peer: a port scanner, health probe, or stray connect
			// on the (possibly well-known) rendezvous port. Drop it and
			// keep accepting — only registered peers can fail the
			// bootstrap.
			conn.Close()
			continue
		}
		var reg registerMsg
		if err := json.Unmarshal(f.payload, &reg); err != nil {
			conn.Close()
			continue
		}
		if err := admitRegistration(book, reg, n); err != nil {
			nack, _ := json.Marshal(nackMsg{Error: err.Error()})
			conn.Write(appendFrame(nil, frame{kind: frameNack, payload: nack}))
			conn.Close()
			return nil, fmt.Errorf("dist: rendezvous: %w", err)
		}
		for _, id := range reg.Ranks {
			book[id] = reg.Addr
		}
		peers = append(peers, conn)
	}
	payload, err := json.Marshal(bookMsg{Addrs: book})
	if err != nil {
		return nil, err
	}
	buf := appendFrame(nil, frame{kind: frameBook, payload: payload})
	for _, c := range peers {
		if _, err := c.Write(buf); err != nil {
			return nil, fmt.Errorf("dist: rendezvous: publishing the address book: %w", err)
		}
	}
	return book, nil
}

// admitRegistration validates one register message against the book so far.
func admitRegistration(book map[int]string, reg registerMsg, n int) error {
	if reg.Addr == "" || len(reg.Ranks) == 0 {
		return fmt.Errorf("registration without ranks or address")
	}
	for _, id := range reg.Ranks {
		if id < 0 || id >= n {
			return fmt.Errorf("registered rank %d outside the %d-rank grid", id, n)
		}
		if prev, dup := book[id]; dup {
			return fmt.Errorf("rank %d registered twice (%s and %s)", id, prev, reg.Addr)
		}
	}
	return nil
}

// registerAtRendezvous dials the rendezvous service (with retry, since the
// rank-0 host may not be up yet), registers this process's ranks and
// listener address, and blocks until the full address book arrives.
func registerAtRendezvous(addr string, ranks []int, selfAddr string, deadline time.Duration, retries *atomic.Int64) (map[int]string, error) {
	conn, err := dialRetry(addr, deadline, retries)
	if err != nil {
		return nil, fmt.Errorf("dist: rendezvous at %s: %w", addr, err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(deadline))
	payload, err := json.Marshal(registerMsg{Ranks: ranks, Addr: selfAddr})
	if err != nil {
		return nil, err
	}
	if _, err := conn.Write(appendFrame(nil, frame{kind: frameRegister, payload: payload})); err != nil {
		return nil, fmt.Errorf("dist: rendezvous registration: %w", err)
	}
	f, err := readFrame(conn)
	if err != nil {
		return nil, fmt.Errorf("dist: rendezvous: waiting for the address book: %w", err)
	}
	switch f.kind {
	case frameBook:
		var book bookMsg
		if err := json.Unmarshal(f.payload, &book); err != nil {
			return nil, fmt.Errorf("dist: rendezvous address book payload: %w", err)
		}
		return book.Addrs, nil
	case frameNack:
		var nack nackMsg
		json.Unmarshal(f.payload, &nack)
		return nil, fmt.Errorf("dist: rendezvous rejected registration: %s", nack.Error)
	default:
		return nil, fmt.Errorf("dist: rendezvous answered with frame kind %d, want the address book", f.kind)
	}
}

// registerMsg and bookMsg are the rendezvous bootstrap payloads (JSON: the
// bootstrap runs once per process, so self-describing beats compact).
type registerMsg struct {
	Ranks []int  `json:"ranks"`
	Addr  string `json:"addr"`
}

type bookMsg struct {
	Addrs map[int]string `json:"addrs"`
}

type nackMsg struct {
	Error string `json:"error"`
}

// dialRetry dials addr until it succeeds or the deadline passes — the
// connect-retry that lets processes start in any order. Every failed
// attempt is tallied into retries (when non-nil): a non-zero count after a
// successful bootstrap measures how long this process waited for its peers.
func dialRetry(addr string, deadline time.Duration, retries *atomic.Int64) (net.Conn, error) {
	expire := time.Now().Add(deadline)
	var lastErr error
	for attempt := 0; ; attempt++ {
		remain := time.Until(expire)
		if remain <= 0 {
			return nil, fmt.Errorf("gave up connecting to %s after %v (%d attempts): %w", addr, deadline, attempt, lastErr)
		}
		step := dialRetryStep
		if step > remain {
			step = remain
		}
		conn, err := net.DialTimeout("tcp", addr, remain)
		if err == nil {
			return conn, nil
		}
		lastErr = err
		if retries != nil {
			retries.Add(1)
		}
		time.Sleep(step)
	}
}

// wrap applies the chaos-injection hook (when configured) to a freshly
// established outbound connection.
func (t *TCPTransport[T]) wrap(conn net.Conn, oe *outEdge) net.Conn {
	if t.wrapConn == nil {
		return conn
	}
	return t.wrapConn(conn, oe.from, oe.to, oe.dir)
}

// handshake announces the edge on a fresh connection and waits for the
// receiver's acknowledgement naming the next sequence it expects — 1 on a
// first binding, the resume point after a reconnect.
func (t *TCPTransport[T]) handshake(conn net.Conn, oe *outEdge, deadline time.Duration) (uint32, error) {
	if deadline > 0 {
		conn.SetDeadline(time.Now().Add(deadline))
		defer conn.SetDeadline(time.Time{})
	}
	if _, err := conn.Write(oe.hello); err != nil {
		return 0, fmt.Errorf("hello: %w", err)
	}
	f, err := readFrame(conn)
	if err != nil {
		return 0, fmt.Errorf("waiting for hello ack: %w", err)
	}
	if f.kind != frameHelloAck {
		return 0, fmt.Errorf("peer answered the hello with frame kind %d, want an ack", f.kind)
	}
	if f.seq == 0 {
		return 0, fmt.Errorf("peer acked with sequence 0")
	}
	return f.seq, nil
}

// dialEdges opens one persistent connection per outbound directed edge of
// the hosted ranks, performs the hello/ack handshake, and starts its
// writer goroutine.
func (t *TCPTransport[T]) dialEdges(cfg TCPConfig, book map[int]string) error {
	for _, id := range t.local {
		for d := Dir(0); d < NumDirs; d++ {
			nb, ok := t.geo.Neighbor(id, d, t.ring)
			if !ok {
				continue
			}
			addr, ok := book[nb]
			if !ok {
				return fmt.Errorf("dist: address book has no entry for rank %d (neighbour %v of rank %d)", nb, d, id)
			}
			oe := &outEdge{
				ch:    make(chan []byte, 64),
				free:  make(chan []byte, 64),
				addr:  addr,
				from:  id,
				to:    nb,
				dir:   d,
				hello: appendFrame(nil, frame{kind: frameHello, from: uint16(id), to: uint16(nb), dir: byte(d)}),
			}
			conn, err := dialRetry(addr, cfg.DialTimeout, &t.dialRetries)
			if err != nil {
				return fmt.Errorf("dist: halo edge rank %d --%v--> rank %d: %w", id, d, nb, err)
			}
			conn = t.wrap(conn, oe)
			ack, err := t.handshake(conn, oe, cfg.DialTimeout)
			if err != nil {
				conn.Close()
				return fmt.Errorf("dist: halo edge rank %d --%v--> rank %d: %w", id, d, nb, err)
			}
			oe.conn = conn
			oe.seq = ack - 1
			oe.flushed = ack - 1
			t.outs[edgeKey{id, d}] = oe
			t.track(conn)
			t.wgW.Add(1)
			go func() {
				defer t.wgW.Done()
				t.writeLoop(oe)
			}()
		}
	}
	return nil
}

// writeLoop drains one outbound edge's frame queue onto its socket. The
// loop owns the edge's sequence counter and resend window: every data
// frame is stamped and retained before the write, a write error triggers
// reconnect-with-backoff and replay, and only a reconnect that cannot
// complete within the death deadline (or a replay the window no longer
// covers) declares the edge dead — after which frames are dropped and the
// peer's receive side classifies the failure. When the queue idles, a
// keepalive heartbeat probes the connection so silent severance is healed
// before the next halo exchange needs the edge. On Close the loop first
// flushes everything already queued — the last iteration's barrier tokens
// must reach the peers that are still completing that barrier — and only
// then exits, letting Close take the connections down.
func (t *TCPTransport[T]) writeLoop(oe *outEdge) {
	var hb <-chan time.Time
	if t.keepalive > 0 {
		ticker := time.NewTicker(t.keepalive)
		defer ticker.Stop()
		hb = ticker.C
	}
	for {
		select {
		case buf := <-oe.ch:
			t.dispatch(oe, buf, false)
		case <-hb:
			t.heartbeat(oe)
		case <-t.flushq:
			for {
				select {
				case buf := <-oe.ch:
					t.dispatch(oe, buf, true)
				default:
					return
				}
			}
		}
	}
}

// dispatch stamps one data frame with the edge's next sequence number,
// seals it (length + CRC), retains it in the resend window, and flushes.
func (t *TCPTransport[T]) dispatch(oe *outEdge, buf []byte, closing bool) {
	oe.seq++
	sealFrame(buf, oe.seq)
	oe.ring = append(oe.ring, buf)
	if len(oe.ring) > t.window {
		evict := len(oe.ring) - t.window
		for i := 0; i < evict; i++ {
			if oe.flushed >= oe.seq-uint32(len(oe.ring)-1-i) {
				// Written and past the window: safe to hand back to Send.
				select {
				case oe.free <- oe.ring[i]:
				default:
				}
			}
		}
		n := copy(oe.ring, oe.ring[evict:])
		for i := n; i < len(oe.ring); i++ {
			oe.ring[i] = nil
		}
		oe.ring = oe.ring[:n]
	}
	t.flush(oe, closing)
}

// ioDur is the current I/O deadline; 0 means unbounded waits.
func (t *TCPTransport[T]) ioDur() time.Duration { return time.Duration(t.ioWait.Load()) }

// SetRecvTimeout adjusts the I/O deadline after construction — the same
// knob as TCPConfig.IOTimeout, but settable late so harnesses can bound
// waits uniformly across backends. Non-positive means wait forever.
func (t *TCPTransport[T]) SetRecvTimeout(d time.Duration) {
	if d < 0 {
		d = 0
	}
	t.ioWait.Store(int64(d))
}

// flush writes every retained frame newer than the flushed watermark to
// the connection, reconnecting (and rewinding the watermark to the
// receiver's ack) on write errors. During Close's final drain reconnects
// are skipped — the peers are going away too.
func (t *TCPTransport[T]) flush(oe *outEdge, closing bool) {
	for oe.flushed < oe.seq && !oe.dead {
		idx := len(oe.ring) - int(oe.seq-oe.flushed)
		if idx < 0 {
			// Frames past the window were never written — the receiver can
			// no longer be made whole.
			oe.dead = true
			return
		}
		buf := oe.ring[idx]
		if d := t.ioDur(); d > 0 {
			oe.conn.SetWriteDeadline(time.Now().Add(d))
		}
		if _, err := oe.conn.Write(buf); err == nil {
			oe.flushed++
			continue
		}
		if closing || !t.reconnect(oe) {
			oe.dead = true
			return
		}
	}
}

// heartbeat writes an unsequenced keepalive frame on an idle edge; a
// failure is the early discovery of a severed connection, healed by the
// same reconnect-and-replay path a halo write would take.
func (t *TCPTransport[T]) heartbeat(oe *outEdge) {
	if oe.dead {
		return
	}
	if oe.flushed < oe.seq {
		// Data is pending; flushing it probes the connection anyway.
		t.flush(oe, false)
		return
	}
	// The keepalive carries the last sealed sequence number so the receiver
	// can detect a swallowed frame even when no data follows it.
	buf := appendFrame(nil, frame{kind: frameHeartbeat, from: uint16(oe.from), to: uint16(oe.to), dir: byte(oe.dir), seq: oe.seq})
	if d := t.ioDur(); d > 0 {
		oe.conn.SetWriteDeadline(time.Now().Add(d))
	}
	if _, err := oe.conn.Write(buf); err != nil {
		if !t.reconnect(oe) {
			oe.dead = true
			return
		}
		t.flush(oe, false)
	}
}

// reconnect rebuilds a broken edge connection with bounded exponential
// backoff inside the death deadline: dial, re-wrap (the chaos hook applies
// to reconnects too), re-handshake, and rewind the flush watermark to the
// receiver's acknowledged resume point so flush replays what was lost.
// Returns false when the edge cannot be healed — deadline exhausted,
// transport closing, or the receiver needs frames the window no longer
// retains.
func (t *TCPTransport[T]) reconnect(oe *outEdge) bool {
	if t.deadline <= 0 {
		return false
	}
	oe.conn.Close()
	expire := time.Now().Add(t.deadline)
	backoff := reconnectBackoffMin
	for {
		if t.closed.Load() {
			return false
		}
		remain := time.Until(expire)
		if remain <= 0 {
			return false
		}
		if conn, err := net.DialTimeout("tcp", oe.addr, remain); err == nil {
			conn = t.wrap(conn, oe)
			hsDeadline := t.deadline
			if remain < hsDeadline {
				hsDeadline = remain
			}
			ack, herr := t.handshake(conn, oe, hsDeadline)
			if herr == nil {
				ringBase := oe.seq - uint32(len(oe.ring)) + 1
				if len(oe.ring) > 0 && ack < ringBase {
					// The receiver lost frames older than the resend window
					// retains; the edge cannot be made whole.
					conn.Close()
					return false
				}
				if ack > oe.seq+1 {
					ack = oe.seq + 1
				}
				if ack-1 < oe.flushed {
					oe.resends.Add(int64(oe.flushed - (ack - 1)))
				}
				oe.flushed = ack - 1
				oe.conn = conn
				t.track(conn)
				oe.reconnects.Add(1)
				return true
			}
			conn.Close()
		}
		select {
		case <-t.quit:
			return false
		case <-time.After(backoff):
		}
		if backoff < reconnectBackoffMax {
			backoff *= 2
		}
	}
}

// acceptLoop admits inbound edge connections until the listener closes.
func (t *TCPTransport[T]) acceptLoop() {
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return
		}
		t.track(conn)
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			t.serveConn(conn)
		}()
	}
}

// bindEdge claims box for conn, superseding (and waiting out) any reader
// still bound to a previous connection so frames from two streams can
// never interleave into the FIFO. It returns the sequence to acknowledge
// and a release func the reader must run on exit, or ok == false when the
// edge cannot be (re)bound — poisoned, or the transport is closing.
func (t *TCPTransport[T]) bindEdge(box *edgeBox[T], conn net.Conn) (ack uint32, release func(), ok bool) {
	for {
		box.mu.Lock()
		if box.err != nil {
			box.mu.Unlock()
			return 0, nil, false
		}
		prev, prevConn := box.reader, box.readerConn
		if prev == nil {
			mine := make(chan struct{})
			box.reader = mine
			box.readerConn = conn
			box.bindCount++
			if box.deathT != nil {
				box.deathT.Stop()
				box.deathT = nil
			}
			ack = box.nextSeq
			box.mu.Unlock()
			release = func() {
				box.mu.Lock()
				if box.reader == mine {
					box.reader = nil
					box.readerConn = nil
				}
				box.mu.Unlock()
				close(mine)
			}
			return ack, release, true
		}
		box.mu.Unlock()
		// A previous connection still holds the edge: it is dead or dying
		// (the peer would not reconnect otherwise). Force its reader out
		// and wait for it, so delivery stays single-streamed.
		prevConn.Close()
		select {
		case <-prev:
		case <-t.quit:
			return 0, nil, false
		}
	}
}

// edgeDown handles a bound connection's death: with healing enabled the
// box enters a grace period — a reconnecting peer may rebind it — and
// only the death deadline expiring poisons it as a permanent, classified
// fault; with healing disabled (or cause already classified as beyond
// repair) the box is poisoned immediately.
func (t *TCPTransport[T]) edgeDown(box *edgeBox[T], from int, cause error) {
	if t.closed.Load() {
		return
	}
	if t.deadline <= 0 {
		t.poisonEdge(box, &classedError{class: ClassPermanent,
			err: fmt.Errorf("dist: halo connection from rank %d: %w", from, cause)})
		return
	}
	box.mu.Lock()
	defer box.mu.Unlock()
	if box.err != nil || box.deathT != nil {
		return
	}
	box.deathT = time.AfterFunc(t.deadline, func() {
		t.poisonEdge(box, &classedError{class: ClassPermanent,
			err: fmt.Errorf("dist: rank %d down: connection lost and no reconnect within the %v death deadline: %w", from, t.deadline, cause)})
	})
}

// serveConn handles one inbound edge connection: validate the hello, bind
// (or rebind) the connection to its inbound box, acknowledge with the next
// expected sequence, then pump halo strips, barrier tokens and checkpoints
// into the box until the connection dies — at which point the box enters
// its reconnect grace period (or is poisoned, when healing is off).
func (t *TCPTransport[T]) serveConn(conn net.Conn) {
	hello, err := readFrame(conn)
	if err != nil || hello.kind != frameHello {
		// Unidentifiable peer: nothing to poison. Drop the connection.
		conn.Close()
		return
	}
	from, to, d := int(hello.from), int(hello.to), Dir(hello.dir)
	if d >= NumDirs {
		conn.Close()
		return
	}
	// A frame sent toward d arrives from direction d.Opposite().
	box, ok := t.boxes[edgeKey{to, d.Opposite()}]
	if !ok {
		conn.Close()
		return
	}
	if nb, ok := t.geo.Neighbor(to, d.Opposite(), t.ring); !ok || nb != from {
		// The claim contradicts this process's geometry. On a never-bound
		// edge the real peer is misconfigured (e.g. a different -rankgrid):
		// fail the edge loudly. On a live edge it is a stray foreign
		// connection: drop it without disturbing the healthy stream.
		box.mu.Lock()
		fresh := box.bindCount == 0
		box.mu.Unlock()
		if fresh {
			t.poisonEdge(box, fmt.Errorf("dist: hello from rank %d claiming to be rank %d's %v neighbour, geometry says rank %d", from, to, d.Opposite(), nb))
		}
		conn.Close()
		return
	}
	ack, release, ok := t.bindEdge(box, conn)
	if !ok {
		conn.Close()
		return
	}
	defer release()
	if d := t.ioDur(); d > 0 {
		conn.SetWriteDeadline(time.Now().Add(d))
	}
	if _, err := conn.Write(appendFrame(nil, frame{kind: frameHelloAck, from: uint16(to), to: uint16(from), dir: byte(d), seq: ack})); err != nil {
		t.edgeDown(box, from, fmt.Errorf("hello ack: %w", err))
		conn.Close()
		return
	}
	conn.SetWriteDeadline(time.Time{})
	for {
		f, err := readFrame(conn)
		if err != nil {
			if isCorruptFrame(err) {
				// A corrupted frame: reject the stream and let the sender
				// reconnect and replay — the CRC turned silent corruption
				// into a healable transient.
				box.crcErrors.Add(1)
			}
			t.edgeDown(box, from, fmt.Errorf("dist: halo connection from rank %d: %w", from, err))
			conn.Close()
			return
		}
		if f.kind == frameHeartbeat {
			// A keepalive carries the sender's last sealed sequence number, so
			// an idle edge still discovers a swallowed frame: if the sender
			// claims to have sent frames we never admitted, that is a gap with
			// no follow-up data frame to expose it.
			if gapErr := box.heartbeatGap(f.seq); gapErr != nil {
				t.edgeDown(box, from, fmt.Errorf("dist: halo connection from rank %d: %w", from, gapErr))
				conn.Close()
				return
			}
			continue
		}
		accept, gapErr := box.admitSeq(f.seq)
		if gapErr != nil {
			// Frames were lost on a live stream (a chaos drop, a flaky
			// middlebox). Drop the connection: the sender reconnects,
			// learns our resume point from the ack, and replays.
			t.edgeDown(box, from, fmt.Errorf("dist: halo connection from rank %d: %w", from, gapErr))
			conn.Close()
			return
		}
		if !accept {
			continue // duplicate from a replay; already delivered
		}
		switch f.kind {
		case frameHalo:
			data, err := DecodeElems[T](f.elem, f.payload)
			if err != nil {
				t.poisonEdge(box, &classedError{class: ClassCorrupt,
					err: fmt.Errorf("dist: halo frame from rank %d: %w", from, err)})
				conn.Close()
				return
			}
			box.framesRecv.Add(1)
			box.bytesRecv.Add(int64(len(f.payload)))
			select {
			case box.halo <- data:
			case <-t.quit:
				conn.Close()
				return
			}
		case frameToken:
			select {
			case box.tok <- tokenMsg{gen: f.gen, round: f.round}:
			case <-t.quit:
				conn.Close()
				return
			}
		case frameCkpt:
			data, err := DecodeElems[T](f.elem, f.payload)
			if err != nil {
				t.poisonEdge(box, &classedError{class: ClassCorrupt,
					err: fmt.Errorf("dist: checkpoint frame from rank %d: %w", from, err)})
				conn.Close()
				return
			}
			box.framesRecv.Add(1)
			box.bytesRecv.Add(int64(len(f.payload)))
			select {
			case box.ck <- ckptParcel[T]{gen: int(f.gen), data: data}:
			case <-t.quit:
				conn.Close()
				return
			}
		default:
			t.poisonEdge(box, fmt.Errorf("dist: unexpected frame kind %d from rank %d on a halo edge", f.kind, from))
			conn.Close()
			return
		}
	}
}

// poisonEdge poisons a box on an I/O fault and counts the event — the
// health counter Close's deliberate end-of-run poisons stay out of. During
// teardown a dying connection races Close; treat faults after Close began
// as part of the shutdown, not as failures.
func (t *TCPTransport[T]) poisonEdge(box *edgeBox[T], err error) {
	if box.poison(err) && !t.closed.Load() {
		t.poisoned.Add(1)
	}
}

// track remembers a connection for Close. A connection accepted or dialed
// concurrently with Close (after its snapshot of the list) is closed here
// instead of tracked, so no reader can outlive Close's wait.
func (t *TCPTransport[T]) track(conn net.Conn) {
	t.connMu.Lock()
	if t.closed.Load() {
		t.connMu.Unlock()
		conn.Close()
		return
	}
	t.conns = append(t.conns, conn)
	t.connMu.Unlock()
}

// Neighbor reports whether rank id has a neighbour in direction d — pure
// Decomp geometry, identical to the channel backend.
func (t *TCPTransport[T]) Neighbor(id int, d Dir) bool {
	_, ok := t.geo.Neighbor(id, d, t.ring)
	return ok
}

// Send posts rank from's boundary strip toward its neighbour in direction
// d. The strip is serialised into a fresh wire buffer before Send returns,
// so the caller may reuse the slice after its next Barrier exactly as the
// Transport contract allows; the socket write (and the sequence stamping,
// CRC sealing and resend-window bookkeeping) happens on the edge's writer
// goroutine, so Send never blocks on the network.
func (t *TCPTransport[T]) Send(from int, d Dir, data []T) {
	oe := t.out("Send", from, d)
	var buf []byte
	select {
	case buf = <-oe.free:
	default:
	}
	t.post(oe, encodeHaloFrameInto(buf, uint16(from), uint16(oe.to), byte(d), t.gen.Load(), data))
}

// out returns rank from's outbound edge toward direction d; a missing
// neighbour is a caller bug.
func (t *TCPTransport[T]) out(call string, from int, d Dir) *outEdge {
	oe, ok := t.outs[edgeKey{from, d}]
	if !ok {
		panic(fmt.Sprintf("dist: %s(%d, %v) without a neighbour", call, from, d))
	}
	return oe
}

// post hands one halo or checkpoint frame to the edge's writer goroutine and
// counts its payload.
func (t *TCPTransport[T]) post(oe *outEdge, out []byte) {
	select {
	case oe.ch <- out:
		oe.framesSent.Add(1)
		oe.bytesSent.Add(int64(len(out) - wireHeaderSize))
		oe.noteDepth()
	case <-t.quit:
	}
}

// box returns rank to's inbound box for direction d; a missing neighbour is
// a caller bug.
func (t *TCPTransport[T]) box(call string, to int, d Dir) *edgeBox[T] {
	box, ok := t.boxes[edgeKey{to, d}]
	if !ok {
		panic(fmt.Sprintf("dist: %s(%d, %v) without a neighbour", call, to, d))
	}
	return box
}

// fault wraps the error that failed rank to's wait on edge d as a *Fault
// naming the receiving rank, the direction, the suspect peer, the barrier
// generation it happened in, and the failure class.
func (t *TCPTransport[T]) fault(to int, d Dir, err error) *Fault {
	return &Fault{Rank: to, Dir: d, Peer: t.peerOf(to, d), Gen: int(t.gen.Load()), Class: classOf(err), Err: err}
}

// Recv returns the strip the neighbour of rank to in direction d sent this
// iteration. A transport fault is fatal (see the type comment); tests and
// tolerant callers can use the error-returning recv.
func (t *TCPTransport[T]) Recv(to int, d Dir) []T {
	data, err := t.recv(to, d)
	if err != nil {
		panic(err)
	}
	return data
}

// recv is Recv with the *Fault returned instead of raised.
func (t *TCPTransport[T]) recv(to int, d Dir) ([]T, error) {
	box := t.box("Recv", to, d)
	data, _, err := boxWait(t.ioDur(), "the halo strip", box, box.halo, nil, nil)
	if err != nil {
		return nil, t.fault(to, d, err)
	}
	return data, nil
}

// TryRecv returns the halo strip from direction d if one is already queued
// on the edge's inbound box, without blocking; (nil, false) when nothing
// has been delivered yet. A faulted edge also reports false — its failure
// surfaces on the subsequent blocking Recv, keeping the fatal-fault path
// in one place.
func (t *TCPTransport[T]) TryRecv(to int, d Dir) ([]T, bool) {
	select {
	case data := <-t.box("TryRecv", to, d).halo:
		return data, true
	default:
		return nil, false
	}
}

// RecvEither returns the first halo strip to arrive from either direction
// d1 or d2 — the per-edge completion notification the overlap schedule
// sweeps boundary strips by. Like Recv, a transport fault is fatal and
// panics with a *Fault naming the direction whose edge failed.
func (t *TCPTransport[T]) RecvEither(to int, d1, d2 Dir) (Dir, []T) {
	b1, b2 := t.box("RecvEither", to, d1), t.box("RecvEither", to, d2)
	data, second, err := boxWait(t.ioDur(), "either halo strip", b1, b1.halo, b2, b2.halo)
	d := d1
	if second {
		d = d2
	}
	if err != nil {
		panic(t.fault(to, d, err))
	}
	return d, data
}

// peerOf names the geometric neighbour behind rank to's inbound edge d, or
// -1 when the geometry has none.
func (t *TCPTransport[T]) peerOf(to int, d Dir) int {
	if nb, ok := t.geo.Neighbor(to, d, t.ring); ok {
		return nb
	}
	return -1
}

// SendCkpt posts rank from's packed buddy snapshot toward its neighbour in
// direction d, stamped with the checkpoint iteration. Checkpoints ride the
// same persistent edge connections as halos but as their own frame kind and
// inbound queue, so overlapping a buddy save with the halo exchange never
// perturbs the halo FIFO the lockstep relies on.
func (t *TCPTransport[T]) SendCkpt(from int, d Dir, gen int, data []T) {
	oe := t.out("SendCkpt", from, d)
	es := elemSize[T]()
	out := make([]byte, wireHeaderSize, wireHeaderSize+len(data)*int(es))
	putHeader(out, frame{kind: frameCkpt, from: uint16(from), to: uint16(oe.to), dir: byte(d), elem: es, gen: uint32(gen)})
	t.post(oe, AppendElems(out, data))
}

// RecvCkpt returns the next buddy snapshot the neighbour of rank to in
// direction d sent, with its iteration stamp. Unlike Recv it returns
// transport faults instead of panicking — checkpoint traffic belongs to the
// resilience layer, which handles its own errors.
func (t *TCPTransport[T]) RecvCkpt(to int, d Dir) ([]T, int, error) {
	box := t.box("RecvCkpt", to, d)
	p, _, err := boxWait(t.ioDur(), "the buddy checkpoint", box, box.ck, nil, nil)
	if err != nil {
		return nil, 0, fmt.Errorf("dist: ckpt recv for rank %d from %v: %w", to, d, err)
	}
	return p.data, p.gen, nil
}

// Barrier blocks until every rank of the grid — hosted here or in peer
// processes — has arrived at the current generation. The last hosted rank
// to arrive runs the token exchange for all hosted ranks, then releases
// them together.
func (t *TCPTransport[T]) Barrier() { t.bar.await() }

// Abort poisons every inbound edge and fails the local barrier with cause,
// waking every hosted rank blocked in Recv, RecvCkpt or Barrier. It is how
// one rank's transport fault unwinds its siblings in the same process so a
// tolerant run (Cluster.RunRecover) can hand the fault to the resilience
// layer instead of hanging on a barrier no one will complete. Idempotent;
// the first cause wins. Boxes are poisoned before the barrier is failed
// because the exchanging rank holds the barrier's lock while it waits for a
// token — the poison is what wakes it.
func (t *TCPTransport[T]) Abort(cause error) {
	for _, box := range t.boxes {
		box.poison(cause)
	}
	t.bar.abort(cause)
}

// exchangeTokens runs the neighbour token rounds of barrier generation gen
// on behalf of every hosted rank. Each round posts one token per outbound
// edge and collects one per inbound edge; diameter-many rounds make the
// barrier global (see the type comment).
func (t *TCPTransport[T]) exchangeTokens(gen uint32) error {
	for round := 1; round <= t.rounds; round++ {
		for _, id := range t.local {
			for d := Dir(0); d < NumDirs; d++ {
				oe, ok := t.outs[edgeKey{id, d}]
				if !ok {
					continue
				}
				f := frame{kind: frameToken, from: uint16(id), dir: byte(d), gen: gen, round: uint16(round)}
				if nb, ok := t.geo.Neighbor(id, d, t.ring); ok {
					f.to = uint16(nb)
				}
				buf := appendFrame(make([]byte, 0, wireHeaderSize), f)
				select {
				case oe.ch <- buf:
					oe.noteDepth() // tokens count toward backlog, not halo frames
				case <-t.quit:
					return errors.New("dist: transport closed during barrier")
				}
			}
		}
		for _, id := range t.local {
			for d := Dir(0); d < NumDirs; d++ {
				box, ok := t.boxes[edgeKey{id, d}]
				if !ok {
					continue
				}
				tok, _, err := boxWait(t.ioDur(), "the barrier token", box, box.tok, nil, nil)
				if err != nil {
					return &Fault{Rank: id, Dir: d, Peer: t.peerOf(id, d), Gen: int(gen), Barrier: true, Class: classOf(err),
						Err: fmt.Errorf("round %d/%d: %w", round, t.rounds, err)}
				}
				if tok.gen != gen || int(tok.round) != round {
					return &Fault{Rank: id, Dir: d, Peer: t.peerOf(id, d), Gen: int(gen), Barrier: true,
						Err: fmt.Errorf("token for generation %d round %d, want generation %d round %d (lockstep violated)",
							tok.gen, tok.round, gen, round)}
				}
			}
		}
	}
	return nil
}

// Close tears the transport down: listener, every edge connection, and all
// reader/writer goroutines. Safe to call more than once. Ranks blocked in
// Recv or Barrier when their peer's transport closes observe a poisoned
// edge, not a hang.
func (t *TCPTransport[T]) Close() error {
	if !t.closed.CompareAndSwap(false, true) {
		return nil
	}
	// Flush before teardown: tokens of the final barrier may still sit in
	// the outbound queues, and neighbours completing that barrier need
	// them before their connection reads EOF.
	close(t.flushq)
	t.wgW.Wait()
	close(t.quit)
	t.ln.Close()
	t.connMu.Lock()
	conns := t.conns
	t.conns = nil
	t.connMu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	t.wg.Wait()
	for _, box := range t.boxes {
		box.mu.Lock()
		if box.deathT != nil {
			box.deathT.Stop()
			box.deathT = nil
		}
		box.mu.Unlock()
		box.poison(errors.New("dist: transport closed"))
	}
	return nil
}

// Metrics returns the per-edge halo traffic of the hosted ranks plus the
// backend's health counters — including the self-healing ones: connections
// rebuilt (Reconnects), frames replayed from resend windows (Resends),
// frames rejected by the wire CRC (CrcErrors) and replay duplicates
// dropped by the sequence dedup (DupFrames). Each process of a
// multi-process cluster reports its own edges; the launcher's MergeAll
// sums the totals. Safe to call live (the counters are atomic) and after
// Close.
func (t *TCPTransport[T]) Metrics() telemetry.TransportMetrics {
	var m telemetry.TransportMetrics
	for _, id := range t.local {
		for d := Dir(0); d < NumDirs; d++ {
			nb, ok := t.geo.Neighbor(id, d, t.ring)
			if !ok {
				continue
			}
			e := telemetry.EdgeStat{From: id, To: nb, Dir: d.String()}
			if oe, ok := t.outs[edgeKey{id, d}]; ok {
				e.FramesSent = oe.framesSent.Load()
				e.BytesSent = oe.bytesSent.Load()
				e.QueueHW = oe.queueHW.Load()
				m.Reconnects += oe.reconnects.Load()
				m.Resends += oe.resends.Load()
			}
			if box, ok := t.boxes[edgeKey{id, d}]; ok {
				e.FramesRecv = box.framesRecv.Load()
				e.BytesRecv = box.bytesRecv.Load()
				m.CrcErrors += box.crcErrors.Load()
				m.DupFrames += box.dupFrames.Load()
			}
			m.Edges = append(m.Edges, e)
		}
	}
	m.SortEdges()
	m.DialRetries = t.dialRetries.Load()
	m.Poisoned = t.poisoned.Load()
	return m
}
