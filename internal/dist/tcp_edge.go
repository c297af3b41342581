package dist

// Edge lifecycle and healing of the socket backend: the inbound box and
// outbound connection of one directed edge, the connection reader, and the
// reconnect-and-replay path that absorbs transient wire faults.

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

	// expire bounds the box's blocking waits (boxWait). One timer serves
	// them all, re-armed per wait, because a box has one waiter at a time:
	// its rank, or the barrier on the rank's behalf while the rank is parked
	// in it.
	expire *time.Timer

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
	b := &edgeBox[T]{
		halo:    make(chan []T, 4),
		tok:     make(chan tokenMsg, tokCap),
		ck:      make(chan ckptParcel[T], 2),
		done:    make(chan struct{}),
		nextSeq: 1,
		expire:  time.NewTimer(time.Hour),
	}
	b.expire.Stop()
	return b
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
		// Re-arming is clean: go.mod's go 1.24 selects the timer channels
		// that hold no stale tick after Stop or Reset.
		b1.expire.Reset(timeout)
		defer b1.expire.Stop()
		expire = b1.expire.C
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
// connection its users write to directly. Send, SendCkpt and the barrier's
// token stamp, seal, retain and write their frame on the calling goroutine
// under mu — a frame is in the kernel's socket buffer when the call returns,
// so the strip a rank posts and the barrier token it sends next reach the
// peer's reader back to back, with no goroutine hand-off in between. Every
// data frame is stamped, sealed and retained before it hits the wire, so
// after a reconnect the edge can replay exactly the frames the receiver
// names in its hello acknowledgement. The edge's keepalive goroutine takes
// the same lock to probe an idle connection; rebuilding a broken one is the
// one thing that leaves the caller's goroutine (heal).
type outEdge struct {
	conn     net.Conn
	addr     string
	from, to int
	dir      Dir
	hello    []byte // sealed hello frame, re-sent on every reconnect

	// mu guards the connection and the reliability state below.
	mu      sync.Mutex
	seq     uint32   // last data sequence assigned
	flushed uint32   // last sequence successfully written to the current conn
	ring    [][]byte // sealed frames (seq-len(ring)+1 .. seq], oldest first
	healing bool     // the connection is being rebuilt (heal); frames wait in the ring
	dead    bool     // edge declared unhealable; frames are dropped

	// free holds the wire buffers evicted from the resend window: once a
	// frame falls out of the window it can never be replayed again, so a
	// steady halo-and-token cadence reuses its buffers instead of
	// allocating one per frame. Bounded — a full list drops the buffer (GC
	// takes it), an empty one makes the next frame allocate.
	free [][]byte

	// framesSent/bytesSent count halo and checkpoint traffic written to the
	// edge (payload bytes, headers and tokens excluded, so counts compare
	// across backends). reconnects counts connections rebuilt after an I/O
	// fault, resends data frames replayed from the window.
	framesSent, bytesSent atomic.Int64
	reconnects, resends   atomic.Int64
}

// readBufSize is a connection reader's buffer: a depth-1 column strip of a
// few thousand rows and the token behind it in one read. Larger frames
// bypass it.
const readBufSize = 16 << 10

// maxFreeBufs bounds an edge's list of recycled wire buffers: a strip, a
// token and a checkpoint frame in rotation, with slack.
const maxFreeBufs = 8

// takeBuf returns a wire buffer of length wireHeaderSize with room for
// need bytes in all, recycled when the free list holds one of a fitting
// size — not one several times too large, or tokens would take the strips'
// buffers. Call with mu held.
func (oe *outEdge) takeBuf(need int) []byte {
	for i, b := range oe.free {
		if cap(b) >= need && cap(b) <= 4*need {
			last := len(oe.free) - 1
			oe.free[i], oe.free[last] = oe.free[last], nil
			oe.free = oe.free[:last]
			return b[:wireHeaderSize]
		}
	}
	return make([]byte, wireHeaderSize, need)
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

// post serialises one data frame — a halo strip, a checkpoint or a barrier
// token (data nil) — into a buffer the edge owns and writes it on the
// caller's goroutine: stamped with the edge's next sequence number, sealed
// (length + CRC) and retained in the resend window first. A write error
// triggers reconnect-with-backoff and replay (heal), and only a reconnect
// that cannot complete within the death deadline (or a replay the window no
// longer covers) declares the edge dead — after which frames are dropped
// and the peer's receive side classifies the failure.
func (t *TCPTransport[T]) post(oe *outEdge, f frame, data []T) {
	oe.mu.Lock()
	buf := oe.takeBuf(wireHeaderSize + len(data)*int(f.elem))
	putHeader(buf, f)
	buf = AppendElems(buf, data)
	oe.seq++
	sealFrame(buf, oe.seq)
	oe.ring = append(oe.ring, buf)
	if len(oe.ring) > t.window {
		// Written and past the window: the buffer can carry a later frame.
		if old := oe.ring[0]; oe.flushed >= frameSeq(old) && len(oe.free) < maxFreeBufs {
			oe.free = append(oe.free, old)
		}
		n := copy(oe.ring, oe.ring[1:])
		oe.ring[n] = nil
		oe.ring = oe.ring[:n]
	}
	t.flush(oe)
	oe.mu.Unlock()
	if f.kind != frameToken {
		oe.framesSent.Add(1)
		oe.bytesSent.Add(int64(len(buf) - wireHeaderSize))
	}
}

// keepaliveLoop probes one outbound edge whenever a keepalive period passes,
// so silent severance is healed before the next halo exchange needs the
// edge. It is the edge's one standing goroutine and exits when the transport
// closes.
func (t *TCPTransport[T]) keepaliveLoop(oe *outEdge) {
	ticker := time.NewTicker(t.keepalive)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			oe.mu.Lock()
			t.heartbeat(oe)
			oe.mu.Unlock()
		case <-t.quit:
			return
		}
	}
}

// flush writes every retained frame newer than the flushed watermark to
// the connection. A write error hands the edge to heal and returns: the
// frames stay in the window and go out when the connection is back. Call
// with oe.mu held.
func (t *TCPTransport[T]) flush(oe *outEdge) {
	for oe.flushed < oe.seq && !oe.dead && !oe.healing {
		idx := len(oe.ring) - int(oe.seq-oe.flushed)
		if idx < 0 {
			// Frames past the window were never written — the receiver can
			// no longer be made whole.
			oe.dead = true
			return
		}
		if d := t.ioDur(); d > 0 {
			oe.conn.SetWriteDeadline(time.Now().Add(d))
		}
		if _, err := oe.conn.Write(oe.ring[idx]); err != nil {
			t.heal(oe)
			return
		}
		oe.flushed++
	}
}

// heartbeat writes an unsequenced keepalive frame on an idle edge; a
// failure is the early discovery of a severed connection, healed by the
// same reconnect-and-replay path a halo write would take. Call with oe.mu
// held.
func (t *TCPTransport[T]) heartbeat(oe *outEdge) {
	if oe.dead || oe.healing {
		return
	}
	if oe.flushed < oe.seq {
		// Data is pending; flushing it probes the connection anyway.
		t.flush(oe)
		return
	}
	// The keepalive carries the last sealed sequence number so the receiver
	// can detect a swallowed frame even when no data follows it.
	buf := appendFrame(nil, frame{kind: frameHeartbeat, from: uint16(oe.from), to: uint16(oe.to), dir: byte(oe.dir), seq: oe.seq})
	if d := t.ioDur(); d > 0 {
		oe.conn.SetWriteDeadline(time.Now().Add(d))
	}
	if _, err := oe.conn.Write(buf); err != nil {
		t.heal(oe)
	}
}

// heal takes a broken edge off its users' hands: the connection is rebuilt
// on a goroutine of its own, so the Send, token or keepalive that found it
// broken returns at once — a rank never sits in a dial back-off, and the
// edges a dead peer breaks heal (or expire) side by side, not one death
// deadline after another. Until the goroutine is done, frames posted to
// the edge are stamped and retained but not written. It ends in one of two
// ways: the watermark rewound to the receiver's acknowledged resume point
// and everything after it replayed, or the edge declared dead — deadline
// exhausted, transport closing, or the receiver needing frames the window
// no longer retains. Call with oe.mu held.
func (t *TCPTransport[T]) heal(oe *outEdge) {
	if t.deadline <= 0 {
		oe.dead = true
		return
	}
	oe.healing = true
	oe.conn.Close()
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		conn, ack := t.redial(oe)
		oe.mu.Lock()
		defer oe.mu.Unlock()
		oe.healing = false
		if conn != nil && len(oe.ring) > 0 && ack < oe.seq-uint32(len(oe.ring))+1 {
			// The receiver lost frames older than the resend window
			// retains; the edge cannot be made whole.
			conn.Close()
			conn = nil
		}
		if conn == nil {
			oe.dead = true
			return
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
		t.flush(oe)
	}()
}

// redial dials a broken edge's peer with bounded exponential backoff inside
// the death deadline: dial, re-wrap (the chaos hook applies to reconnects
// too), re-handshake. It returns the new connection and the next sequence
// the receiver expects, or nil when the deadline ran out or the transport
// is closing. It touches only what never changes about the edge, so it
// runs without oe.mu.
func (t *TCPTransport[T]) redial(oe *outEdge) (net.Conn, uint32) {
	expire := time.Now().Add(t.deadline)
	backoff := reconnectBackoffMin
	for {
		if t.closed.Load() {
			return nil, 0
		}
		remain := time.Until(expire)
		if remain <= 0 {
			return nil, 0
		}
		if conn, err := net.DialTimeout("tcp", oe.addr, remain); err == nil {
			conn = t.wrap(conn, oe)
			ack, herr := t.handshake(conn, oe, min(remain, t.deadline))
			if herr == nil {
				return conn, ack
			}
			conn.Close()
		}
		select {
		case <-t.quit:
			return nil, 0
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
	// Decoded strips rotate through buffers the reader owns. When a buffer
	// comes round again its last strip is at least cap(box.halo)+2 strips
	// old: the box can hold back cap of the newer ones and the rank one
	// more, and the rank took that one after the barrier that ended the
	// older strip's life (Transport, payload lifetime).
	strips := make([][]T, cap(box.halo)+2)
	next := 0
	for {
		f, err := fr.next()
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
			data, err := decodeElemsInto(strips[next], f.elem, f.payload)
			if err != nil {
				t.poisonEdge(box, &classedError{class: ClassCorrupt,
					err: fmt.Errorf("dist: halo frame from rank %d: %w", from, err)})
				conn.Close()
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
