package dist

// Edge lifecycle of the socket backend: the inbound box and outbound
// connection of one directed edge, and the connection reader. A TCP
// connection delivers its bytes once and in order, or fails (RFC 9293), so an
// edge carries no reliability layer of its own: a fault on it — a dead
// connection, a frame the CRC rejects, a frame out of its place in the
// edge's count — poisons the edge at once, and the buddy recovery above the
// transport takes over.

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"stencilabft/internal/num"
)

// edgeKey identifies a directed halo edge from one rank's point of view:
// for inbound boxes, {rank, d} holds what rank's d-neighbour sent; for
// outbound edges, {rank, d} carries what rank sends toward d.
type edgeKey struct {
	rank int
	dir  Dir
}

// edgeBox is the inbound queue of one directed edge. A connection-reader
// goroutine fills it; the owning rank drains it from Recv and Barrier. One
// connection binds the box for the transport's life; when it fails the box
// is poisoned: done closes and err holds the classified cause, so a blocked
// receiver wakes with a real error instead of hanging.
type edgeBox[T num.Float] struct {
	halo chan []T
	tok  chan tokenMsg
	ck   chan ckptParcel[T] // buddy snapshots; at most one in flight per period

	// expire bounds the box's blocking waits (boxWait). One timer serves
	// them all, re-armed per wait, because a box has one waiter at a time:
	// its rank, or the barrier on the rank's behalf while the rank is parked
	// in it.
	expire *time.Timer

	// Halo and checkpoint traffic received on this edge (frames and
	// payload bytes), counted by the connection reader as frames land in
	// the box; crcErrors counts frames rejected by the wire checksum.
	framesRecv, bytesRecv atomic.Int64
	crcErrors             atomic.Int64

	// poisoned is the transport's count of edges whose fault a wait ran
	// into (nil counts nothing).
	poisoned *atomic.Int64

	mu    sync.Mutex
	err   error
	done  chan struct{}
	fault bool // err is the edge's own fault, not yet counted
	bound bool // a connection has claimed the edge; it is never rebound
}

func newEdgeBox[T num.Float](tokCap int, poisoned *atomic.Int64) *edgeBox[T] {
	b := &edgeBox[T]{
		halo:     make(chan []T, 4),
		tok:      make(chan tokenMsg, tokCap),
		ck:       make(chan ckptParcel[T], 2),
		done:     make(chan struct{}),
		expire:   time.NewTimer(time.Hour),
		poisoned: poisoned,
	}
	b.expire.Stop()
	return b
}

// poison records the first error and wakes every blocked receiver. It
// reports whether this call was the one that poisoned the box. fault marks
// err as the edge's own failure — not Abort's or Close's cause — which the
// first wait to run into it counts (cause).
func (b *edgeBox[T]) poison(err error, fault bool) bool {
	b.mu.Lock()
	first := b.err == nil
	if first {
		b.err = err
		b.fault = fault
		close(b.done)
	}
	b.mu.Unlock()
	return first
}

// cause returns the error that poisoned the box. The first wait to run into
// an edge fault counts the edge as poisoned, so a peer that closes after
// the run's last barrier — poisoning boxes no wait reads again — is no
// fault in the counters.
func (b *edgeBox[T]) cause() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.fault && b.poisoned != nil {
		b.poisoned.Add(1)
	}
	b.fault = false
	return b.err
}

// bind claims the box for the first connection that announces its edge and
// reports whether this call claimed it.
func (b *edgeBox[T]) bind() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.bound {
		return false
	}
	b.bound = true
	return true
}

// boxWait is the socket backend's one blocking wait, shared by halo,
// checkpoint and barrier-token receives: c is the queue to drain on b. It
// returns the next queued value or the error that poisoned the edge; a
// positive timeout expiring is a ClassTimeout error naming what was
// awaited. A value enqueued before its edge died is still delivered.
func boxWait[T num.Float, V any](timeout time.Duration, what string, b *edgeBox[T], c <-chan V) (v V, err error) {
	select {
	case v = <-c:
		return v, nil
	default:
	}
	var expire <-chan time.Time
	if timeout > 0 {
		// Re-arming is clean: go.mod's go 1.24 selects the timer channels
		// that hold no stale tick after Stop or Reset.
		b.expire.Reset(timeout)
		defer b.expire.Stop()
		expire = b.expire.C
	}
	select {
	case v = <-c:
		return v, nil
	case <-b.done:
		select {
		case v = <-c:
			return v, nil
		default:
			return v, b.cause()
		}
	case <-expire:
		return v, &classedError{class: ClassTimeout,
			err: fmt.Errorf("timed out after %v waiting for %s", timeout, what)}
	}
}

// outEdge is the outbound half of one directed edge: a persistent
// connection its users write to directly. Send, SendCkpt and the barrier's
// token stamp, seal and write their frame on the calling goroutine under
// mu — a frame is in the kernel's socket buffer when the call returns, so
// the strip a rank posts and the barrier token it sends next reach the
// peer's reader back to back, with no goroutine hand-off in between.
type outEdge struct {
	conn net.Conn
	to   int

	// mu guards the connection and the state below.
	mu  sync.Mutex
	buf []byte // the wire buffer every frame is serialised into, reused once written
	seq uint32 // frames sent on the edge, lost ones (Lose) included

	// framesSent/bytesSent count halo and checkpoint traffic written to the
	// edge (payload bytes, headers and tokens excluded, so counts compare
	// across backends).
	framesSent, bytesSent atomic.Int64
}

// readBufSize is a connection reader's buffer: a depth-1 column strip of a
// few thousand rows and the token behind it in one read. Larger frames
// bypass it.
const readBufSize = 16 << 10

// post serialises one data frame — a halo strip, a checkpoint or a barrier
// token (data nil) — into the edge's wire buffer, stamps it with the edge's
// next frame number, seals it (length + CRC) and writes it on the caller's
// goroutine. A failed write closes the connection, so the peer's reader
// poisons its box at once; later writes on the edge fail too, and this rank
// learns of the fault from its own inbound edges when the peer tears down.
func (t *TCPTransport[T]) post(oe *outEdge, f frame, data []T) {
	oe.mu.Lock()
	buf := oe.buf[:0]
	if need := wireHeaderSize + len(data)*int(f.elem); cap(buf) < need {
		buf = make([]byte, 0, need)
	}
	buf = buf[:wireHeaderSize]
	putHeader(buf, f)
	buf = AppendElems(buf, data)
	oe.seq++
	sealFrame(buf, oe.seq)
	oe.buf = buf
	if d := t.ioDur(); d > 0 {
		oe.conn.SetWriteDeadline(time.Now().Add(d))
	}
	if _, err := oe.conn.Write(buf); err != nil {
		oe.conn.Close()
	}
	oe.mu.Unlock()
	if f.kind != frameToken {
		oe.framesSent.Add(1)
		oe.bytesSent.Add(int64(len(buf) - wireHeaderSize))
	}
}

// Lose is Send for a strip lost on the way: it takes its frame number on
// the edge and never arrives, so the peer's reader fails the edge on the
// frame that comes in its place — as ChanTransport.Lose fails the round.
func (t *TCPTransport[T]) Lose(from int, d Dir) {
	oe := t.out("Lose", from, d)
	oe.mu.Lock()
	oe.seq++
	oe.mu.Unlock()
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

// failEdge poisons box with a classified cause and closes the connection
// that failed it. A connection failing while the transport closes is the
// teardown itself: Close poisons the box once its readers are gone.
func (t *TCPTransport[T]) failEdge(box *edgeBox[T], conn net.Conn, class FaultClass, err error) {
	if !t.closed.Load() {
		box.poison(&classedError{class: class, err: err}, true)
	}
	conn.Close()
}

// serveConn handles one inbound edge connection: validate the hello, bind
// the connection to its inbound box, then pump halo strips, barrier tokens
// and checkpoints into the box until the connection fails — which poisons
// the box, classified: a connection that died is ClassPermanent, a frame
// the CRC rejects ClassCorrupt, and a frame that is not the edge's next
// ClassTimeout (its predecessor never arrived).
func (t *TCPTransport[T]) serveConn(conn net.Conn) {
	// Buffered, so a strip and the barrier token written behind it cost the
	// reader one syscall and one wake-up; sized for a strip plus its token.
	fr := &frameReader{r: bufio.NewReaderSize(conn, readBufSize)}
	hello, err := fr.next()
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
		// The claim contradicts this process's geometry: the peer is
		// misconfigured (e.g. a different -rankgrid). Fail the edge loudly.
		t.failEdge(box, conn, ClassUnknown, fmt.Errorf("dist: hello from rank %d claiming to be rank %d's %v neighbour, geometry says rank %d", from, to, d.Opposite(), nb))
		return
	}
	if !box.bind() {
		t.failEdge(box, conn, ClassUnknown, fmt.Errorf("dist: a second connection from rank %d claimed the bound %v edge of rank %d (edges are never rebound)", from, d.Opposite(), to))
		return
	}
	// Decoded strips rotate through buffers the reader owns. When a buffer
	// comes round again its last strip is at least cap(box.halo)+2 strips
	// old: the box can hold back cap of the newer ones and the rank one
	// more, and the rank took that one after the barrier that ended the
	// older strip's life (Transport, payload lifetime).
	strips := make([][]T, cap(box.halo)+2)
	next := 0
	var seq uint32 // frames delivered on the edge
	for {
		f, err := fr.next()
		if err != nil {
			class := ClassPermanent
			if isCorruptFrame(err) {
				box.crcErrors.Add(1)
				class = ClassCorrupt
			}
			t.failEdge(box, conn, class, fmt.Errorf("dist: halo connection from rank %d: %w", from, err))
			return
		}
		if seq++; f.seq != seq {
			t.failEdge(box, conn, ClassTimeout, fmt.Errorf("dist: halo connection from rank %d: frame %d never arrived: the edge delivered frame %d in its place", from, seq, f.seq))
			return
		}
		switch f.kind {
		case frameHalo:
			data, err := decodeElemsInto(strips[next], f.elem, f.payload)
			if err != nil {
				t.failEdge(box, conn, ClassCorrupt, fmt.Errorf("dist: halo frame from rank %d: %w", from, err))
				return
			}
			strips[next] = data
			next = (next + 1) % len(strips)
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
				t.failEdge(box, conn, ClassCorrupt, fmt.Errorf("dist: checkpoint frame from rank %d: %w", from, err))
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
			t.failEdge(box, conn, ClassUnknown, fmt.Errorf("dist: unexpected frame kind %d from rank %d on a halo edge", f.kind, from))
			return
		}
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
