package dist

import (
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
	closed atomic.Bool
	wg     sync.WaitGroup // the accept loop, connection readers and keepalive loops

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

// Neighbor reports whether rank id has a neighbour in direction d — pure
// Decomp geometry, identical to the channel backend.
func (t *TCPTransport[T]) Neighbor(id int, d Dir) bool {
	_, ok := t.geo.Neighbor(id, d, t.ring)
	return ok
}

// Send posts rank from's boundary strip toward its neighbour in direction
// d. The strip is serialised into a wire buffer the edge owns, stamped,
// sealed, retained for replay and written to the socket before Send
// returns, so the caller may reuse the slice at once — well inside what the
// Transport contract allows. The write is into the kernel's socket buffer:
// it waits for the network only when the peer's reader has fallen a whole
// buffer behind, and a broken connection is rebuilt off this goroutine
// (heal) while the frame waits in the resend window.
func (t *TCPTransport[T]) Send(from int, d Dir, data []T) {
	oe := t.out("Send", from, d)
	t.post(oe, frame{kind: frameHalo, from: uint16(from), to: uint16(oe.to), dir: byte(d), elem: elemSize[T](), gen: t.gen.Load()}, data)
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
	t.post(oe, frame{kind: frameCkpt, from: uint16(from), to: uint16(oe.to), dir: byte(d), elem: elemSize[T](), gen: uint32(gen)}, data)
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

// Close tears the transport down: listener, every edge connection, and all
// reader and keepalive goroutines. Safe to call more than once. Ranks blocked in
// Recv or Barrier when their peer's transport closes observe a poisoned
// edge, not a hang.
func (t *TCPTransport[T]) Close() error {
	if !t.closed.CompareAndSwap(false, true) {
		return nil
	}
	// Nothing to flush: every frame was written by the call that posted it,
	// so the final barrier's tokens are in the socket buffers already and
	// reach the neighbours still completing that barrier ahead of the EOF.
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
