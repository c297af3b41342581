package dist

import (
	"errors"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// flakyConn induces one transient connection failure: when the shared
// countdown hits zero the write fails and the connection closes — the
// wire-level fault the self-healing path must absorb.
type flakyConn struct {
	net.Conn
	countdown *atomic.Int32
}

func (c *flakyConn) Write(b []byte) (int, error) {
	if c.countdown.Add(-1) == 0 {
		c.Conn.Close()
		return 0, errors.New("induced transient connection failure")
	}
	return c.Conn.Write(b)
}

// TestTCPTransientDisconnectHeals kills the 1->0 edge connection mid-run
// and checks the transport heals it invisibly: every strip still arrives
// in order with the right bits, no error ever surfaces, and the metrics
// show the reconnect happened.
func TestTCPTransientDisconnectHeals(t *testing.T) {
	var countdown atomic.Int32
	countdown.Store(5) // fail the 5th write on the wrapped edge, once
	tr0, tr1 := splitTCPPair(t, false, func(cfg *TCPConfig) {
		cfg.DeathDeadline = 5 * time.Second
		cfg.WrapConn = func(conn net.Conn, from, to int, d Dir) net.Conn {
			if from == 1 && to == 0 {
				return &flakyConn{Conn: conn, countdown: &countdown}
			}
			return conn
		}
	})

	const iters = 10
	errs := make(chan error, 1)
	go func() {
		defer close(errs)
		for i := 0; i < iters; i++ {
			tr1.Send(1, Up, []float64{float64(100 + i)})
			got, err := tr1.recv(1, Up)
			if err != nil || got[0] != float64(i) {
				errs <- err
				return
			}
			tr1.Barrier()
		}
	}()
	for i := 0; i < iters; i++ {
		tr0.Send(0, Down, []float64{float64(i)})
		got, err := tr0.recv(0, Down)
		if err != nil {
			t.Fatalf("iteration %d: recv after induced disconnect: %v", i, err)
		}
		if got[0] != float64(100+i) {
			t.Fatalf("iteration %d: got %v, want %v — healing broke delivery order", i, got[0], 100+i)
		}
		tr0.Barrier()
	}
	if err, bad := <-errs; bad {
		t.Fatalf("rank 1 side: %v", err)
	}
	if countdown.Load() > 0 {
		t.Fatal("the induced failure never fired; the test exercised nothing")
	}
	m := tr1.Metrics()
	if m.Reconnects < 1 {
		t.Errorf("Reconnects = %d, want >= 1 (the healed edge)", m.Reconnects)
	}
	if m0 := tr0.Metrics(); m0.Poisoned != 0 || m.Poisoned != 0 {
		t.Errorf("poison events %d/%d, want 0/0 — a transient fault must not kill an edge", m0.Poisoned, m.Poisoned)
	}
}

// newLoopbackTCP builds an all-local TCP transport for tests: every rank
// hosted in this process, halo traffic over real loopback sockets, no
// rendezvous needed (the address book is trivial).
func newLoopbackTCP(t *testing.T, rx, ry int, ring bool) *TCPTransport[float64] {
	t.Helper()
	tr, err := NewTCPTransport[float64](TCPConfig{RanksX: rx, RanksY: ry, Ring: ring})
	if err != nil {
		t.Fatalf("NewTCPTransport(%dx%d, ring=%v): %v", rx, ry, ring, err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr
}

// splitTCPPair wires the two ranks of a 1x2 chain as two separate
// TCPTransport instances meeting at a rendezvous — the in-process stand-in
// for two OS processes. mod (optional) adjusts each side's config before
// construction. Returns the transports hosting rank 0 and rank 1.
func splitTCPPair(t *testing.T, ring bool, mod ...func(*TCPConfig)) (*TCPTransport[float64], *TCPTransport[float64]) {
	t.Helper()
	apply := func(cfg TCPConfig) TCPConfig {
		for _, m := range mod {
			m(&cfg)
		}
		return cfg
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	type result struct {
		tr  *TCPTransport[float64]
		err error
	}
	ch0 := make(chan result, 1)
	go func() {
		tr, err := NewTCPTransport[float64](apply(TCPConfig{
			RanksX: 1, RanksY: 2, Ring: ring,
			LocalRanks: []int{0}, Rendezvous: addr, RendezvousListener: ln,
			DialTimeout: 5 * time.Second,
		}))
		ch0 <- result{tr, err}
	}()
	tr1, err := NewTCPTransport[float64](apply(TCPConfig{
		RanksX: 1, RanksY: 2, Ring: ring,
		LocalRanks: []int{1}, Rendezvous: addr,
		DialTimeout: 5 * time.Second,
	}))
	if err != nil {
		t.Fatalf("rank-1 transport: %v", err)
	}
	r0 := <-ch0
	if r0.err != nil {
		tr1.Close()
		t.Fatalf("rank-0 transport: %v", r0.err)
	}
	t.Cleanup(func() {
		r0.tr.Close()
		tr1.Close()
	})
	return r0.tr, tr1
}

// TestTCPRecvErrorOnPeerDeath kills one side of a running 1x2 TCP cluster
// and checks the survivor's receive fails with a wrapped error naming the
// rank, the direction and the barrier generation instead of hanging.
func TestTCPRecvErrorOnPeerDeath(t *testing.T) {
	// Healing disabled: the peer's death must surface immediately as a
	// permanent fault, not after a reconnect grace period.
	tr0, tr1 := splitTCPPair(t, false, func(cfg *TCPConfig) { cfg.DeathDeadline = -1 })

	// One healthy iteration first, so the failure happens mid-stream.
	done := make(chan struct{})
	go func() {
		tr1.Send(1, Up, []float64{42})
		if got, err := tr1.recv(1, Up); err != nil || got[0] != 7 {
			t.Errorf("healthy iteration: rank 1 got %v, %v", got, err)
		}
		tr1.Barrier()
		close(done)
	}()
	tr0.Send(0, Down, []float64{7})
	if got, err := tr0.recv(0, Down); err != nil || got[0] != 42 {
		t.Fatalf("healthy iteration: rank 0 got %v, %v", got, err)
	}
	tr0.Barrier()
	<-done

	// Rank 1's process "dies" mid-iteration.
	tr1.Close()
	_, err := tr0.recv(0, Down)
	if err == nil {
		t.Fatal("recv from a dead peer succeeded")
	}
	msg := err.Error()
	for _, want := range []string{"rank 0", "down", "generation 1"} {
		if !strings.Contains(msg, want) {
			t.Errorf("peer-death error %q does not name %q", msg, want)
		}
	}
}

// TestTCPConnectRetryDeadline points a transport at a rendezvous nobody
// serves and checks the bootstrap gives up after the configured deadline
// with an actionable error, rather than retrying forever.
func TestTCPConnectRetryDeadline(t *testing.T) {
	// Reserve a port and close it again: nothing listens there.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	start := time.Now()
	tr, err := NewTCPTransport[float64](TCPConfig{
		RanksX: 1, RanksY: 2,
		LocalRanks: []int{1}, Rendezvous: addr,
		DialTimeout: 300 * time.Millisecond,
	})
	if err == nil {
		tr.Close()
		t.Fatal("bootstrap against a dead rendezvous succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("bootstrap took %v, deadline was 300ms", elapsed)
	}
	msg := err.Error()
	if !strings.Contains(msg, "gave up") || !strings.Contains(msg, addr) {
		t.Errorf("deadline error %q does not describe the retry give-up at %s", msg, addr)
	}
}

// newHalfTCP builds a transport hosting only rank 0 of a 1x2 chain while
// the test plays rank 1's process with raw sockets: it registers a dummy
// data listener at the rendezvous, answers the transport's outbound edge
// handshake (hello → helloAck) and swallows everything after it, and
// returns a raw connection on which the test can write hand-crafted frames
// for the (genuinely unbound) inbound edge rank 1 --Up--> rank 0.
func newHalfTCP(t *testing.T, mod ...func(*TCPConfig)) (*TCPTransport[float64], net.Conn) {
	t.Helper()
	peerLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { peerLn.Close() })
	go func() {
		for {
			c, err := peerLn.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				for {
					f, err := readFrame(c)
					if err != nil {
						return
					}
					if f.kind == frameHello {
						c.Write(appendFrame(nil, frame{kind: frameHelloAck, from: f.to, to: f.from, dir: f.dir, seq: 1}))
					}
				}
			}(c)
		}
	}()
	rdvLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go registerAtRendezvous(rdvLn.Addr().String(), []int{1}, peerLn.Addr().String(), 5*time.Second, nil)
	cfg := TCPConfig{
		RanksX: 1, RanksY: 2,
		LocalRanks: []int{0}, Rendezvous: rdvLn.Addr().String(), RendezvousListener: rdvLn,
		DialTimeout: 5 * time.Second, IOTimeout: 5 * time.Second,
	}
	for _, m := range mod {
		m(&cfg)
	}
	tr, err := NewTCPTransport[float64](cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })

	conn, err := net.Dial("tcp", tr.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return tr, conn
}

// TestTCPWireVersionRejected handshakes a raw connection onto a live
// transport's data listener and then sends a frame from a "future" wire
// version; the receiving edge must reject it with an error naming both
// versions.
func TestTCPWireVersionRejected(t *testing.T) {
	// Healing off: the protocol error must poison the edge immediately with
	// the version cause, not wait out a reconnect grace period.
	tr, conn := newHalfTCP(t, func(cfg *TCPConfig) { cfg.DeathDeadline = -1 })

	// Valid hello for the directed edge rank 1 --Up--> rank 0, so the
	// connection binds to a real inbound box...
	if _, err := conn.Write(appendFrame(nil, frame{kind: frameHello, from: 1, to: 0, dir: byte(Up)})); err != nil {
		t.Fatal(err)
	}
	// ...then a version-mismatched halo frame.
	bad := appendFrame(nil, frame{kind: frameHalo, from: 1, to: 0, dir: byte(Up), elem: 8})
	bad[2] = wireVersion + 1
	if _, err := conn.Write(bad); err != nil {
		t.Fatal(err)
	}

	_, err := tr.recv(0, Down)
	if err == nil {
		t.Fatal("version-mismatched frame accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, "wire version mismatch") || !strings.Contains(msg, "version 2") {
		t.Errorf("version error %q does not name the mismatched versions", msg)
	}
}

// TestTCPRejectsMixedElementWidth checks a float32 halo frame arriving at a
// float64 rank is rejected (the elem byte in the header is validated).
func TestTCPRejectsMixedElementWidth(t *testing.T) {
	tr, conn := newHalfTCP(t)

	if _, err := conn.Write(appendFrame(nil, frame{kind: frameHello, from: 1, to: 0, dir: byte(Up)})); err != nil {
		t.Fatal(err)
	}
	f32payload := AppendElems(nil, []float32{1, 2})
	if _, err := conn.Write(appendFrame(nil, frame{kind: frameHalo, from: 1, to: 0, dir: byte(Up), elem: 4, payload: f32payload})); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.recv(0, Down); err == nil || !strings.Contains(err.Error(), "element width") {
		t.Fatalf("mixed element width accepted: %v", err)
	}
}

// TestTCPEdgeRebind checks the reconnect protocol on the receive side: a
// second hello for an already-bound edge supersedes the old connection, the
// helloAck names the resume sequence, replayed duplicates are deduplicated,
// and in-order frames on the new connection are delivered — the receiver
// half of transparent healing.
func TestTCPEdgeRebind(t *testing.T) {
	tr, conn := newHalfTCP(t)

	if _, err := conn.Write(appendFrame(nil, frame{kind: frameHello, from: 1, to: 0, dir: byte(Up)})); err != nil {
		t.Fatal(err)
	}
	if ack, err := readFrame(conn); err != nil || ack.kind != frameHelloAck || ack.seq != 1 {
		t.Fatalf("first hello ack: %+v, %v", ack, err)
	}
	payload := AppendElems(nil, []float64{11})
	if _, err := conn.Write(appendFrame(nil, frame{kind: frameHalo, from: 1, to: 0, dir: byte(Up), elem: 8, seq: 1, payload: payload})); err != nil {
		t.Fatal(err)
	}
	if got, err := tr.recv(0, Down); err != nil || got[0] != 11 {
		t.Fatalf("first stream: %v, %v", got, err)
	}

	// The peer "reconnects": the new hello takes the edge over and the ack
	// names the next sequence the box expects.
	dup, err := net.Dial("tcp", tr.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer dup.Close()
	if _, err := dup.Write(appendFrame(nil, frame{kind: frameHello, from: 1, to: 0, dir: byte(Up)})); err != nil {
		t.Fatal(err)
	}
	if ack, err := readFrame(dup); err != nil || ack.kind != frameHelloAck || ack.seq != 2 {
		t.Fatalf("rebind hello ack: %+v, %v (want resume at seq 2)", ack, err)
	}

	// A replay of the already-delivered frame is deduplicated; the next
	// in-order frame is delivered.
	stale := AppendElems(nil, []float64{99})
	if _, err := dup.Write(appendFrame(nil, frame{kind: frameHalo, from: 1, to: 0, dir: byte(Up), elem: 8, seq: 1, payload: stale})); err != nil {
		t.Fatal(err)
	}
	payload = AppendElems(nil, []float64{22})
	if _, err := dup.Write(appendFrame(nil, frame{kind: frameHalo, from: 1, to: 0, dir: byte(Up), elem: 8, seq: 2, payload: payload})); err != nil {
		t.Fatal(err)
	}
	if got, err := tr.recv(0, Down); err != nil || got[0] != 22 {
		t.Fatalf("stream after rebind: %v, %v", got, err)
	}
	if m := tr.Metrics(); m.DupFrames != 1 {
		t.Errorf("DupFrames = %d, want 1 (the replayed frame)", m.DupFrames)
	}
}

// TestTCPCorruptFrameRejected flips a payload bit after sealing and checks
// the receiving edge rejects the frame via the wire CRC, attributing the
// corruption to the edge.
func TestTCPCorruptFrameRejected(t *testing.T) {
	tr, conn := newHalfTCP(t, func(cfg *TCPConfig) { cfg.DeathDeadline = -1 })

	if _, err := conn.Write(appendFrame(nil, frame{kind: frameHello, from: 1, to: 0, dir: byte(Up)})); err != nil {
		t.Fatal(err)
	}
	bad := appendFrame(nil, frame{kind: frameHalo, from: 1, to: 0, dir: byte(Up), elem: 8, seq: 1,
		payload: AppendElems(nil, []float64{3.5})})
	bad[len(bad)-3] ^= 0x10 // one flipped bit in the payload
	if _, err := conn.Write(bad); err != nil {
		t.Fatal(err)
	}

	_, err := tr.recv(0, Down)
	if err == nil {
		t.Fatal("corrupted frame accepted")
	}
	msg := err.Error()
	for _, want := range []string{"CRC mismatch", "rank 1", "corrupted on the wire"} {
		if !strings.Contains(msg, want) {
			t.Errorf("corruption error %q does not name %q", msg, want)
		}
	}
	if m := tr.Metrics(); m.CrcErrors != 1 {
		t.Errorf("CrcErrors = %d, want 1", m.CrcErrors)
	}
}

// TestTCPRendezvousDuplicateRankRejected checks that two processes claiming
// the same rank fail the bootstrap loudly on both sides.
func TestTCPRendezvousDuplicateRankRejected(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()

	serveErr := make(chan error, 1)
	go func() {
		_, err := serveRendezvous(ln, 2, []int{0}, "127.0.0.1:1", 2*time.Second)
		serveErr <- err
	}()
	// First registrant claims rank 0 — already owned by the server.
	_, err = registerAtRendezvous(addr, []int{0}, "127.0.0.1:2", 2*time.Second, nil)
	if err == nil || !strings.Contains(err.Error(), "registered twice") {
		t.Fatalf("duplicate registration not rejected: %v", err)
	}
	if err := <-serveErr; err == nil || !strings.Contains(err.Error(), "registered twice") {
		t.Fatalf("rendezvous server accepted a duplicate rank: %v", err)
	}
}

// TestTCPRendezvousSurvivesStrayConnections checks the bootstrap service
// tolerates non-peer connections on its (possibly well-known) port — a
// port scanner or health probe must not abort the cluster start.
func TestTCPRendezvousSurvivesStrayConnections(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()

	type result struct {
		book map[int]string
		err  error
	}
	served := make(chan result, 1)
	go func() {
		book, err := serveRendezvous(ln, 2, []int{0}, "127.0.0.1:1", 5*time.Second)
		served <- result{book, err}
	}()

	// Stray 1: connect and hang up. Stray 2: speak garbage.
	if c, err := net.Dial("tcp", addr); err == nil {
		c.Close()
	}
	if c, err := net.Dial("tcp", addr); err == nil {
		c.Write([]byte("GET / HTTP/1.1\r\n\r\n"))
		c.Close()
	}

	// The real peer still registers fine.
	book, err := registerAtRendezvous(addr, []int{1}, "127.0.0.1:2", 5*time.Second, nil)
	if err != nil {
		t.Fatalf("registration after stray connections: %v", err)
	}
	if book[0] != "127.0.0.1:1" || book[1] != "127.0.0.1:2" {
		t.Fatalf("address book %v", book)
	}
	if r := <-served; r.err != nil || r.book[1] != "127.0.0.1:2" {
		t.Fatalf("server side: %v, %v", r.book, r.err)
	}
}

// TestTCPBarrierTimeout checks a barrier against a peer that never arrives
// fails after the IO timeout with an error naming the rank, direction,
// generation and round.
func TestTCPBarrierTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	type result struct {
		tr  *TCPTransport[float64]
		err error
	}
	ch0 := make(chan result, 1)
	go func() {
		tr, err := NewTCPTransport[float64](TCPConfig{
			RanksX: 1, RanksY: 2,
			LocalRanks: []int{0}, Rendezvous: addr, RendezvousListener: ln,
			DialTimeout: 5 * time.Second, IOTimeout: 300 * time.Millisecond,
		})
		ch0 <- result{tr, err}
	}()
	tr1, err := NewTCPTransport[float64](TCPConfig{
		RanksX: 1, RanksY: 2,
		LocalRanks: []int{1}, Rendezvous: addr,
		DialTimeout: 5 * time.Second, IOTimeout: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr1.Close()
	r0 := <-ch0
	if r0.err != nil {
		t.Fatal(r0.err)
	}
	defer r0.tr.Close()

	// Rank 1 never enters the barrier; rank 0's exchange must time out.
	err = r0.tr.exchangeTokens(0)
	if err == nil {
		t.Fatal("barrier against an absent peer completed")
	}
	msg := err.Error()
	for _, want := range []string{"rank 0", "generation 0", "round 1"} {
		if !strings.Contains(msg, want) {
			t.Errorf("barrier timeout error %q does not name %q", msg, want)
		}
	}
}
