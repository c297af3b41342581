package dist

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"stencilabft/internal/num"
	"stencilabft/internal/telemetry"
)

// Dir identifies a halo direction relative to a rank in the Cartesian rank
// grid: Up is toward smaller grid row cy (smaller global y), Down toward
// larger, Left toward smaller grid column cx (smaller global x), Right
// toward larger. The 1-D row-band chain uses Up/Down only.
type Dir int

// Halo directions. NumDirs sizes per-direction tables (e.g. the
// stats.Stats.HaloByDir counters, which are indexed by Dir in this order).
const (
	Up Dir = iota
	Down
	Left
	Right
	NumDirs = 4
)

// String returns the direction's display name.
func (d Dir) String() string {
	switch d {
	case Up:
		return "up"
	case Down:
		return "down"
	case Left:
		return "left"
	case Right:
		return "right"
	default:
		return fmt.Sprintf("dir(%d)", int(d))
	}
}

// Opposite returns the direction a message sent toward d arrives from.
func (d Dir) Opposite() Dir {
	switch d {
	case Up:
		return Down
	case Down:
		return Up
	case Left:
		return Right
	default:
		return Left
	}
}

// Transport is the cluster's communication seam: it carries halo payloads
// between neighbouring ranks of a ranksX-by-ranksY Cartesian rank grid
// (rank ids row-major, id = cy*ranksX + cx — the Decomp convention) and
// separates exchange rounds with a barrier — exactly the subset of MPI a
// bulk-synchronous stencil code needs (MPI_Cart_create neighbours,
// Isend/Irecv/Waitany of boundary strips, MPI_Barrier). This is the whole
// contract, stated once: ChanTransport (the default) and TCPTransport
// implement all of it, a wrapper (counting, chaos injection) embeds the
// Transport it wraps and overrides only the calls it intercepts, disttest
// is the conformance suite every implementation runs, and a backend drops
// in via Options.NewTransport without touching the protection logic.
//
// Phase ordering. An exchange round is the traffic of one exchange
// iteration, and Barrier g closes round g. For each round a rank performs
// at most one Send and one receive (Recv, a successful TryRecv, or its half
// of a RecvEither) per direction, in two phases — first Left/Right (packed
// boundary columns), then Up/Down (full extended-width boundary rows, which
// thread the corner data received in the first phase to the diagonal
// neighbours). The x-phase is pipelined: a rank may post its Left/Right
// strips of round g+1 before it enters Barrier g, as soon as they are final,
// and the neighbour receives them after that barrier, FIFO behind round g's
// strip on the same edge. So up to two strips are outstanding on an x edge —
// round g+1's, and round g+2's from a neighbour already through round g+1 —
// and Send blocks on neither: the non-blocking Isend schedule that keeps the
// exchange deadlock-free in any rank order. The Up/Down sends of a round
// happen inside it, after both x strips are in. A strip posted before
// Barrier g has been delivered to its receiver's inbox by the time that
// receiver's Barrier g returns, so a TryRecv after the barrier finds it.
// Directional calls are only legal where Neighbor reports a neighbour;
// elsewhere they panic with a plain string (a caller bug).
//
// Payload lifetime. The slice passed to Send stays valid until the sender's
// Barrier that closes the round the strip belongs to — for a strip posted
// ahead of Barrier g that is Barrier g+1, which is why a sender keeps two
// pack buffers per x edge; the slice passed to SendCkpt until the sender's
// next Barrier. The slice a receive returns is valid until the receiver's
// Barrier closing the round it belongs to — its next one — so the receiver
// copies it out first.
//
// Failure. Halo traffic fails fatally, MPI_ERRORS_ARE_FATAL style, since no
// iteration can complete without its neighbours: Recv and RecvEither panic
// with a *Fault (abort cause, timeout or dead edge), Barrier panics with an
// error, and Cluster.RunRecover turns either back into a returned error.
// TryRecv never fails — a faulted edge reports (nil, false) and surfaces on
// the blocking receive that follows. Checkpoint traffic belongs to the
// resilience layer, which handles its own errors: RecvCkpt returns them.
type Transport[T num.Float] interface {
	// Neighbor reports whether rank id has a neighbour in direction d
	// (false at the domain edge under non-periodic boundaries; the rank
	// then synthesises its ghost strip from the boundary condition).
	Neighbor(id int, d Dir) bool
	// Send posts rank from's boundary strip toward direction d.
	Send(from int, d Dir, data []T)
	// Recv blocks for the strip rank to's neighbour in direction d sent
	// this round.
	Recv(to int, d Dir) []T
	// TryRecv is the non-blocking Recv: (strip, true) when the strip is
	// already queued, consuming it exactly as Recv would (same FIFO);
	// (nil, false) otherwise. A strip already present has no latency left
	// to hide, so the overlap schedule folds it into the interior sweep.
	TryRecv(to int, d Dir) ([]T, bool)
	// RecvEither blocks for the strip from either of two distinct
	// directions of one phase and returns whichever lands first, so the
	// rank sweeps that boundary strip while the other is still in flight.
	// The remaining direction is received with Recv.
	RecvEither(to int, d1, d2 Dir) (Dir, []T)
	// SendCkpt posts rank from's packed buddy snapshot, stamped with the
	// checkpoint iteration gen, toward direction d. Snapshots ride the halo
	// edges but queue apart from the strips, so they never perturb the halo
	// FIFO; same non-blocking contract as Send.
	SendCkpt(from int, d Dir, gen int, data []T)
	// RecvCkpt blocks for the next snapshot rank to's neighbour in
	// direction d sent and returns it with its iteration stamp.
	RecvCkpt(to int, d Dir) (data []T, gen int, err error)
	// Barrier blocks until every rank has arrived — the lockstep that keeps
	// halo data exactly one exchange round fresh.
	Barrier()
	// Abort fails every pending and future Recv, RecvEither, RecvCkpt and
	// Barrier with cause — how one rank's fault unwinds its siblings so a
	// tolerant run returns instead of hanging. Idempotent; the first cause
	// wins.
	Abort(cause error)
	// SetRecvTimeout bounds every subsequent blocking receive, so a stalled
	// peer surfaces as a ClassTimeout fault instead of a hang; <= 0 waits
	// forever. Call it before the ranks run.
	SetRecvTimeout(d time.Duration)
	// Metrics snapshots the frames and payload bytes counted per directed
	// edge plus the backend's health counters. Safe while the ranks run.
	Metrics() telemetry.TransportMetrics
	// Close releases what the backend holds (sockets, goroutines).
	// Idempotent.
	Close() error
}

// ChanTransport is the default in-process Transport: adjacent ranks of the
// Cartesian grid are wired with paired channels in the MPI neighbour
// pattern. Each channel carries one message per round per direction: a
// boundary strip, either as a view into the sender's read buffer (row
// strips, immutable until the iteration barrier) or as a sender-owned pack
// buffer (column strips, rewritten two rounds later); the receiver copies
// before reaching its own barrier. Capacity 2 is the contract's two strips
// outstanding per edge: a rank posts its phase's sends before either
// receive, and its next round's x strips before the barrier, without
// blocking.
//
// Under a ring (periodic global boundaries) both axes close into a torus,
// so wrap-around halos are real remote data; a single rank on an axis
// degenerates to a self-exchange through the same channels.
//
// Every strip travels stamped with its round on its edge: one strip per
// round per direction means the n-th strip a rank sends toward a direction
// belongs to the edge's n-th round, and the n-th receive on the edge wants
// exactly it. A strip lost on the way (Lose) still takes its round, so the
// receiver, finding the next round's strip in its place, fails with a
// classified fault naming the edge instead of absorbing a wrong halo —
// which, with the next round's x strip posted ahead of the barrier, it
// otherwise would, with nothing to time out on.
type ChanTransport[T num.Float] struct {
	geo  Decomp // rank-grid shape only (Nx/Ny unused)
	ring bool
	ch   [NumDirs][]chan strip[T]      // ch[d][i] carries rank i's strip toward direction d
	ck   [NumDirs][]chan ckptParcel[T] // ck[d][i] carries rank i's buddy snapshot toward d
	bar  *barrier
	em   *edgeCounters

	// rounds[i] is rank i's side of its edges' round stamps; only rank i
	// touches it, and a rank's counters sit together, apart from the
	// others' (the ranks run on different cores).
	rounds []edgeRounds

	// recvTimeout, when positive, bounds every Recv/RecvCkpt wait so a
	// stalled sibling rank surfaces as a classified timeout fault instead
	// of a hang — the channel backend's analogue of TCPConfig.IOTimeout.
	recvTimeout time.Duration

	// Abort support: quit closes once with the first cause, waking every
	// blocked channel operation so a tolerant caller can unwind.
	abortOnce sync.Once
	abortErr  error
	quit      chan struct{}
}

// edgeRounds is one rank's round accounting per direction: the strips it
// has sent, lost ones included, the strips it has received, and the fault a
// TryRecv found on the edge, for the blocking receive after it to raise.
type edgeRounds struct {
	sent, got [NumDirs]int
	lost      [NumDirs]error
}

// strip is one halo strip in flight and its round on the edge.
type strip[T num.Float] struct {
	round int
	data  []T
}

// ckptParcel is one buddy-checkpoint snapshot in flight: the packed rank
// state and the iteration it was taken at.
type ckptParcel[T num.Float] struct {
	gen  int
	data []T
}

// edgeCounters tallies halo frames and payload bytes per (rank, direction)
// — [dir][rank], the sender's or receiver's view of one directed edge.
// Atomics, because rank goroutines update them concurrently with each
// other and with live metric scrapes; one Add per halo frame (not per
// point), so the cost is noise against the strip copy itself.
type edgeCounters struct {
	sentN, sentB, recvN, recvB [NumDirs][]atomic.Int64
}

func newEdgeCounters(n int) *edgeCounters {
	em := &edgeCounters{}
	for d := 0; d < NumDirs; d++ {
		em.sentN[d] = make([]atomic.Int64, n)
		em.sentB[d] = make([]atomic.Int64, n)
		em.recvN[d] = make([]atomic.Int64, n)
		em.recvB[d] = make([]atomic.Int64, n)
	}
	return em
}

func (em *edgeCounters) sent(d Dir, rank int, bytes int) {
	em.sentN[d][rank].Add(1)
	em.sentB[d][rank].Add(int64(bytes))
}

func (em *edgeCounters) recvd(d Dir, rank int, bytes int) {
	em.recvN[d][rank].Add(1)
	em.recvB[d][rank].Add(int64(bytes))
}

// snapshot renders the counters as the per-edge metrics of a geo-shaped
// grid: one EdgeStat per existing directed edge, pairing what rank From
// sent toward direction d with what it received back from that neighbour.
func (em *edgeCounters) snapshot(geo Decomp, ring bool) telemetry.TransportMetrics {
	var m telemetry.TransportMetrics
	for i := 0; i < geo.NumRanks(); i++ {
		for d := Dir(0); d < NumDirs; d++ {
			nb, ok := geo.Neighbor(i, d, ring)
			if !ok {
				continue
			}
			m.Edges = append(m.Edges, telemetry.EdgeStat{
				From:       i,
				To:         nb,
				Dir:        d.String(),
				FramesSent: em.sentN[d][i].Load(),
				BytesSent:  em.sentB[d][i].Load(),
				FramesRecv: em.recvN[d][i].Load(),
				BytesRecv:  em.recvB[d][i].Load(),
			})
		}
	}
	m.SortEdges()
	return m
}

// NewChanTransport wires a ranksX-by-ranksY rank grid with paired halo
// channels; ring closes both axes into a torus (periodic boundaries). The
// 1-D row-band chain is the (1, nRanks) shape.
func NewChanTransport[T num.Float](ranksX, ranksY int, ring bool) *ChanTransport[T] {
	n := ranksX * ranksY
	t := &ChanTransport[T]{
		geo:  Decomp{RanksX: ranksX, RanksY: ranksY},
		ring: ring,
		bar:  newBarrier(n),
		quit: make(chan struct{}),
	}
	for d := range t.ch {
		t.ch[d] = make([]chan strip[T], n)
		t.ck[d] = make([]chan ckptParcel[T], n)
		for i := 0; i < n; i++ {
			t.ch[d][i] = make(chan strip[T], 2) // two strips outstanding per edge, see the type comment
			t.ck[d][i] = make(chan ckptParcel[T], 1)
		}
	}
	t.rounds = make([]edgeRounds, n)
	t.em = newEdgeCounters(n)
	return t
}

// SetRecvTimeout bounds every subsequent receive wait (<= 0 waits forever,
// the default) — the channel backend's analogue of TCPConfig.IOTimeout.
func (t *ChanTransport[T]) SetRecvTimeout(d time.Duration) { t.recvTimeout = d }

// Neighbor reports whether rank id has a neighbour in direction d.
func (t *ChanTransport[T]) Neighbor(id int, d Dir) bool {
	_, ok := t.geo.Neighbor(id, d, t.ring)
	return ok
}

// peer returns the rank behind rank id's edge in direction d; a missing
// neighbour is a caller bug.
func (t *ChanTransport[T]) peer(call string, id int, d Dir) int {
	nb, ok := t.geo.Neighbor(id, d, t.ring)
	if !ok {
		panic(fmt.Sprintf("dist: %s(%d, %v) without a neighbour", call, id, d))
	}
	return nb
}

// chanWait is the channel backend's one blocking wait, shared by every
// receive: it returns the first value to arrive on c1 or c2 (c2 may be nil;
// second reports which), the abort cause once the transport is aborted, or a
// ClassTimeout error naming what it waited for after the receive timeout.
func chanWait[T num.Float, V any](t *ChanTransport[T], what string, c1, c2 <-chan V) (v V, second bool, err error) {
	var expire <-chan time.Time
	if t.recvTimeout > 0 {
		tm := time.NewTimer(t.recvTimeout)
		defer tm.Stop()
		expire = tm.C
	}
	select {
	case v = <-c1:
		return v, false, nil
	case v = <-c2:
		return v, true, nil
	case <-t.quit:
		return v, false, t.abortErr
	case <-expire:
		return v, false, &classedError{class: ClassTimeout,
			err: fmt.Errorf("timed out after %v waiting for %s", t.recvTimeout, what)}
	}
}

// fault wraps a failed halo wait of rank to on its edge d as the *Fault
// Recv and RecvEither panic with.
func (t *ChanTransport[T]) fault(to int, d Dir, nb int, err error) *Fault {
	return &Fault{Rank: to, Dir: d, Peer: nb, Gen: t.bar.generation(), Class: classOf(err), Err: err}
}

// Send posts data on the channel toward rank from's neighbour in
// direction d, stamped with its round on the edge.
func (t *ChanTransport[T]) Send(from int, d Dir, data []T) {
	t.em.sent(d, from, len(data)*int(elemSize[T]()))
	s := strip[T]{round: t.rounds[from].sent[d], data: data}
	t.rounds[from].sent[d]++
	select {
	case t.ch[d][from] <- s:
	case <-t.quit:
	}
}

// Lose is Send for a strip lost on the way: it takes its round on the edge
// and never arrives. A transport wrapper that drops messages calls it in
// place of Send.
func (t *ChanTransport[T]) Lose(from int, d Dir) { t.rounds[from].sent[d]++ }

// Recv returns the strip sent toward rank to from direction d: the
// d-neighbour's message posted toward the opposite direction.
func (t *ChanTransport[T]) Recv(to int, d Dir) []T {
	nb := t.peer("Recv", to, d)
	if err := t.rounds[to].lost[d]; err != nil {
		panic(t.fault(to, d, nb, err))
	}
	s, _, err := chanWait(t, "the halo strip", t.ch[d.Opposite()][nb], nil)
	if err == nil {
		err = t.take(to, d, s)
	}
	if err != nil {
		panic(t.fault(to, d, nb, err))
	}
	return s.data
}

// take books strip s as received by rank to from direction d, or returns
// the fault of a strip that is not the edge's next: the round it was due
// in lost its own.
func (t *ChanTransport[T]) take(to int, d Dir, s strip[T]) error {
	want := t.rounds[to].got[d]
	t.rounds[to].got[d]++
	if s.round != want {
		return &classedError{class: ClassTimeout,
			err: fmt.Errorf("the round-%d halo strip never arrived: the edge delivered round %d's in its place", want, s.round)}
	}
	t.em.recvd(d, to, len(s.data)*int(elemSize[T]()))
	return nil
}

// TryRecv returns the strip sent toward rank to from direction d if it has
// already been delivered. A strip out of its round is consumed and kept as
// the fault the next blocking receive on the edge raises.
func (t *ChanTransport[T]) TryRecv(to int, d Dir) ([]T, bool) {
	nb := t.peer("TryRecv", to, d)
	if t.rounds[to].lost[d] != nil {
		return nil, false
	}
	select {
	case s := <-t.ch[d.Opposite()][nb]:
		if err := t.take(to, d, s); err != nil {
			t.rounds[to].lost[d] = err
			return nil, false
		}
		return s.data, true
	default:
		return nil, false
	}
}

// RecvEither returns the first strip to arrive from either direction d1 or
// d2.
func (t *ChanTransport[T]) RecvEither(to int, d1, d2 Dir) (Dir, []T) {
	nb1, nb2 := t.peer("RecvEither", to, d1), t.peer("RecvEither", to, d2)
	for _, e := range [2]struct {
		d  Dir
		nb int
	}{{d1, nb1}, {d2, nb2}} {
		if err := t.rounds[to].lost[e.d]; err != nil {
			panic(t.fault(to, e.d, e.nb, err))
		}
	}
	s, second, err := chanWait(t, "either halo strip", t.ch[d1.Opposite()][nb1], t.ch[d2.Opposite()][nb2])
	if err != nil {
		panic(t.fault(to, d1, nb1, err))
	}
	d, nb := d1, nb1
	if second {
		d, nb = d2, nb2
	}
	if err := t.take(to, d, s); err != nil {
		panic(t.fault(to, d, nb, err))
	}
	return d, s.data
}

// SendCkpt posts rank from's buddy snapshot toward direction d.
func (t *ChanTransport[T]) SendCkpt(from int, d Dir, gen int, data []T) {
	t.em.sent(d, from, len(data)*int(elemSize[T]()))
	select {
	case t.ck[d][from] <- ckptParcel[T]{gen: gen, data: data}:
	case <-t.quit:
	}
}

// RecvCkpt returns the next buddy snapshot sent toward rank to from
// direction d, with its iteration stamp.
func (t *ChanTransport[T]) RecvCkpt(to int, d Dir) ([]T, int, error) {
	nb := t.peer("RecvCkpt", to, d)
	p, _, err := chanWait(t, "the buddy checkpoint", t.ck[d.Opposite()][nb], nil)
	if err != nil {
		return nil, 0, fmt.Errorf("dist: ckpt recv for rank %d from %v: %w", to, d, err)
	}
	t.em.recvd(d, to, len(p.data)*int(elemSize[T]()))
	return p.data, p.gen, nil
}

// Abort wakes every blocked Send/Recv/Barrier with cause.
func (t *ChanTransport[T]) Abort(cause error) {
	t.abortOnce.Do(func() {
		t.abortErr = cause
		close(t.quit)
	})
	t.bar.abort(cause)
}

// Barrier blocks until all ranks have arrived, or panics with the abort
// cause when the transport was aborted.
func (t *ChanTransport[T]) Barrier() { t.bar.await() }

// Metrics returns the per-edge halo traffic counted so far. The channel
// backend has no dials or poison — those stay zero.
func (t *ChanTransport[T]) Metrics() telemetry.TransportMetrics {
	return t.em.snapshot(t.geo, t.ring)
}

// Close is a no-op: the channel backend holds nothing but memory.
func (t *ChanTransport[T]) Close() error { return nil }

// barrier is a reusable cyclic barrier: await blocks until all n parties
// have arrived, then releases the generation together — the per-iteration
// lockstep of the cluster. A failed barrier is permanently failed: every
// pending and future await panics with the first cause, so no party can
// hang waiting for one that died.
type barrier struct {
	mu    sync.Mutex
	cond  *sync.Cond
	n     int
	count int
	gen   int
	fail  error

	// full, when set, runs on the last party to arrive, under the lock,
	// before the generation is released; its error fails the barrier. The
	// socket backend completes the cross-process half of its barrier here.
	full func(gen int) error
}

func newBarrier(n int) *barrier {
	b := &barrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// await blocks until every party has called await for the current
// generation, or panics with the cause the barrier failed with.
func (b *barrier) await() {
	b.mu.Lock()
	if b.fail != nil {
		err := b.fail
		b.mu.Unlock()
		panic(err)
	}
	gen := b.gen
	b.count++
	if b.count == b.n {
		b.count = 0
		if b.full != nil {
			b.fail = b.full(gen)
		}
		err := b.fail
		if err == nil {
			b.gen++
		}
		b.cond.Broadcast()
		b.mu.Unlock()
		if err != nil {
			panic(err)
		}
		return
	}
	for gen == b.gen && b.fail == nil {
		b.cond.Wait()
	}
	released, err := gen != b.gen, b.fail
	b.mu.Unlock()
	if !released {
		panic(err)
	}
}

// abort fails the barrier with cause (first cause wins) and wakes every
// waiter.
func (b *barrier) abort(cause error) {
	b.mu.Lock()
	if b.fail == nil {
		b.fail = cause
	}
	b.cond.Broadcast()
	b.mu.Unlock()
}

// generation returns the number of completed barrier generations.
func (b *barrier) generation() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.gen
}
