// Package disttest is the conformance suite of the dist.Transport contract:
// every method of the interface has a sub-test here, and a backend or
// wrapper is a Transport when it passes. The in-process channel transport,
// the socket backend and the chaos wrapper all run it: neighbour geometry
// over 1-D chains and 2-D rank grids, message routing and payload integrity
// in all four directions, torus wrap-around and self-exchange degeneracies,
// the two-phase send-before-receive ordering the halo exchange relies on,
// the x strip posted one round ahead of the barrier that delivers it,
// non-blocking and first-of-two receives, the checkpoint side channel,
// barrier generation ordering, abort, receive timeouts, traffic counters
// and close.
//
// Usage, from the backend's own test file:
//
//	disttest.Run(t, func(rx, ry int, ring bool) dist.Transport[float64] {
//		return dist.NewChanTransport[float64](rx, ry, ring)
//	})
package disttest

import (
	"errors"
	"sync"
	"testing"
	"time"

	"stencilabft/internal/dist"
	"stencilabft/internal/grid"
	"stencilabft/internal/stencil"
)

// Factory builds the Transport under test for a ranksX-by-ranksY rank grid
// (rank ids row-major, the Decomp convention); ring closes both axes into a
// torus.
type Factory func(ranksX, ranksY int, ring bool) dist.Transport[float64]

// Run executes the full conformance suite against transports built by f.
func Run(t *testing.T, f Factory) {
	t.Run("Neighbors1D", func(t *testing.T) { neighbors1D(t, f) })
	t.Run("Neighbors2D", func(t *testing.T) { neighbors2D(t, f) })
	t.Run("Routing1D", func(t *testing.T) { routing1D(t, f) })
	t.Run("Routing2D", func(t *testing.T) { routing2D(t, f) })
	t.Run("SelfExchange", func(t *testing.T) { selfExchange(t, f) })
	t.Run("ExchangeOrdering", func(t *testing.T) { exchangeOrdering(t, f) })
	t.Run("PipelinedSend", func(t *testing.T) { pipelinedSend(t, f) })
	t.Run("EitherCompletion", func(t *testing.T) { eitherCompletion(t, f) })
	t.Run("TryRecv", func(t *testing.T) { tryRecv(t, f) })
	t.Run("Checkpoint", func(t *testing.T) { checkpoint(t, f) })
	t.Run("BarrierOrdering", func(t *testing.T) { barrierOrdering(t, f) })
	t.Run("Abort", func(t *testing.T) { abort(t, f) })
	t.Run("RecvTimeout", func(t *testing.T) { recvTimeout(t, f) })
	t.Run("OptionsRecvTimeout", func(t *testing.T) { optionsRecvTimeout(t, f) })
	t.Run("Metrics", func(t *testing.T) { metrics(t, f) })
	t.Run("Close", func(t *testing.T) { closeTwice(t, f) })
}

// neighbors1D checks the band-chain wiring: edge ranks have no outer
// neighbour without a ring, every rank is fully wired with one, and no
// rank of a 1-column chain ever has a Left/Right neighbour without wrap.
func neighbors1D(t *testing.T, f Factory) {
	tr := f(1, 3, false)
	if tr.Neighbor(0, dist.Up) || tr.Neighbor(2, dist.Down) {
		t.Fatal("edge rank wired outward without periodic boundaries")
	}
	if !tr.Neighbor(1, dist.Up) || !tr.Neighbor(1, dist.Down) || !tr.Neighbor(0, dist.Down) || !tr.Neighbor(2, dist.Up) {
		t.Fatal("interior wiring missing")
	}
	for id := 0; id < 3; id++ {
		if tr.Neighbor(id, dist.Left) || tr.Neighbor(id, dist.Right) {
			t.Fatalf("1-column chain rank %d has an x neighbour", id)
		}
	}
	ring := f(1, 2, true)
	for i := 0; i < 2; i++ {
		if !ring.Neighbor(i, dist.Up) || !ring.Neighbor(i, dist.Down) {
			t.Fatalf("periodic rank %d not fully wired in y", i)
		}
	}
}

// neighbors2D checks the Cartesian grid wiring of a 3x2 grid (3 columns, 2
// rows): corners have exactly two neighbours without wrap, everyone has
// four with it.
func neighbors2D(t *testing.T, f Factory) {
	tr := f(3, 2, false)
	// Rank 0 is the top-left corner: only Right and Down.
	if tr.Neighbor(0, dist.Up) || tr.Neighbor(0, dist.Left) {
		t.Fatal("top-left corner wired outward")
	}
	if !tr.Neighbor(0, dist.Right) || !tr.Neighbor(0, dist.Down) {
		t.Fatal("top-left corner missing inward wiring")
	}
	// Rank 5 is the bottom-right corner: only Left and Up.
	if tr.Neighbor(5, dist.Down) || tr.Neighbor(5, dist.Right) {
		t.Fatal("bottom-right corner wired outward")
	}
	if !tr.Neighbor(5, dist.Left) || !tr.Neighbor(5, dist.Up) {
		t.Fatal("bottom-right corner missing inward wiring")
	}
	// Rank 1 (top edge, middle column): everything but Up.
	if tr.Neighbor(1, dist.Up) || !tr.Neighbor(1, dist.Left) || !tr.Neighbor(1, dist.Right) || !tr.Neighbor(1, dist.Down) {
		t.Fatal("top-edge wiring wrong")
	}
	torus := f(3, 2, true)
	for id := 0; id < 6; id++ {
		for d := dist.Dir(0); d < dist.NumDirs; d++ {
			if !torus.Neighbor(id, d) {
				t.Fatalf("torus rank %d missing %v neighbour", id, d)
			}
		}
	}
}

// routing1D checks that a message posted toward a direction arrives at the
// adjacent rank when received from the opposite side, including the ring
// wrap-around.
func routing1D(t *testing.T, f Factory) {
	tr := f(1, 3, false)
	tr.Send(1, dist.Up, []float64{1})
	if got := tr.Recv(0, dist.Down); len(got) != 1 || got[0] != 1 {
		t.Fatalf("rank 0 received %v from below, want rank 1's upward message", got)
	}
	tr.Send(1, dist.Down, []float64{2})
	if got := tr.Recv(2, dist.Up); len(got) != 1 || got[0] != 2 {
		t.Fatalf("rank 2 received %v from above, want rank 1's downward message", got)
	}

	ring := f(1, 2, true)
	ring.Send(0, dist.Up, []float64{3}) // wraps around to rank 1's lower side
	if got := ring.Recv(1, dist.Down); got[0] != 3 {
		t.Fatalf("ring wrap-around broken: %v", got)
	}
}

// routing2D checks all four directions on a 2x2 grid, payload integrity
// included, plus the x-axis wrap of the torus.
func routing2D(t *testing.T, f Factory) {
	tr := f(2, 2, false)
	// Ranks: 0 1
	//        2 3
	tr.Send(0, dist.Right, []float64{10, 11})
	if got := tr.Recv(1, dist.Left); len(got) != 2 || got[0] != 10 || got[1] != 11 {
		t.Fatalf("rank 1 received %v from the left, want rank 0's rightward payload", got)
	}
	tr.Send(3, dist.Left, []float64{20})
	if got := tr.Recv(2, dist.Right); got[0] != 20 {
		t.Fatalf("rank 2 received %v from the right, want rank 3's leftward message", got)
	}
	tr.Send(3, dist.Up, []float64{30})
	if got := tr.Recv(1, dist.Down); got[0] != 30 {
		t.Fatalf("rank 1 received %v from below, want rank 3's upward message", got)
	}
	tr.Send(0, dist.Down, []float64{40})
	if got := tr.Recv(2, dist.Up); got[0] != 40 {
		t.Fatalf("rank 2 received %v from above, want rank 0's downward message", got)
	}

	torus := f(2, 2, true)
	torus.Send(0, dist.Left, []float64{50}) // wraps to rank 1's right side
	if got := torus.Recv(1, dist.Right); got[0] != 50 {
		t.Fatalf("torus x wrap broken: %v", got)
	}
	torus.Send(2, dist.Down, []float64{60}) // wraps to rank 0's upper side
	if got := torus.Recv(0, dist.Up); got[0] != 60 {
		t.Fatalf("torus y wrap broken: %v", got)
	}
}

// selfExchange checks the single-rank torus degeneracy on both axes: a
// rank's own opposite-direction message must come back to it.
func selfExchange(t *testing.T, f Factory) {
	self := f(1, 1, true)
	self.Send(0, dist.Up, []float64{4})
	self.Send(0, dist.Down, []float64{5})
	if got := self.Recv(0, dist.Down); got[0] != 4 {
		t.Fatalf("y self-exchange broken: %v", got)
	}
	if got := self.Recv(0, dist.Up); got[0] != 5 {
		t.Fatalf("y self-exchange broken: %v", got)
	}
	self.Send(0, dist.Left, []float64{6})
	self.Send(0, dist.Right, []float64{7})
	if got := self.Recv(0, dist.Right); got[0] != 6 {
		t.Fatalf("x self-exchange broken: %v", got)
	}
	if got := self.Recv(0, dist.Left); got[0] != 7 {
		t.Fatalf("x self-exchange broken: %v", got)
	}
}

// exchangeOrdering drives the halo exchange's two-phase schedule from every
// rank of a 2x2 torus concurrently for several barrier-separated
// iterations: phase 1 posts Left/Right then receives, phase 2 posts
// Up/Down then receives. Sends must never block (the non-blocking Isend
// contract) and every received payload must carry the sender's current
// iteration — halo data exactly one barrier generation fresh.
func exchangeOrdering(t *testing.T, f Factory) {
	const iters = 20
	tr := f(2, 2, true)
	var wg sync.WaitGroup
	for id := 0; id < 4; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				stamp := func(d dist.Dir) []float64 { return []float64{float64(id), float64(it), float64(d)} }
				check := func(d dist.Dir, got []float64) {
					if len(got) != 3 || int(got[1]) != it || dist.Dir(got[2]) != d.Opposite() {
						t.Errorf("rank %d iter %d from %v: stale or misrouted payload %v", id, it, d, got)
					}
				}
				tr.Send(id, dist.Left, stamp(dist.Left))
				tr.Send(id, dist.Right, stamp(dist.Right))
				check(dist.Left, tr.Recv(id, dist.Left))
				check(dist.Right, tr.Recv(id, dist.Right))
				tr.Send(id, dist.Up, stamp(dist.Up))
				tr.Send(id, dist.Down, stamp(dist.Down))
				check(dist.Up, tr.Recv(id, dist.Up))
				check(dist.Down, tr.Recv(id, dist.Down))
				tr.Barrier()
			}
		}(id)
	}
	wg.Wait()
}

// pipelinedSend checks the pipelined x-phase: each rank of a 2x1 chain
// posts its strip of round g and then — ahead of Barrier g — its strip of
// round g+1, with nobody receiving. Both Sends must return (two strips
// outstanding per edge), round g's strip must come out first, and round
// g+1's must be in the inbox the moment Barrier g releases: a poll right
// after the barrier finds it, which is what lets the next exchange absorb
// it into its interior sweep.
func pipelinedSend(t *testing.T, f Factory) {
	tr := f(2, 1, false)
	posted := make(chan struct{})
	go func() {
		defer close(posted)
		tr.Send(0, dist.Right, []float64{0, 0})
		tr.Send(0, dist.Right, []float64{0, 1})
		tr.Send(1, dist.Left, []float64{1, 0})
		tr.Send(1, dist.Left, []float64{1, 1})
	}()
	select {
	case <-posted:
	case <-time.After(deliveryDeadline):
		t.Fatalf("Send still blocked after %v with two strips outstanding on the edge and no receiver", deliveryDeadline)
	}

	var wg sync.WaitGroup
	for id, d := range []dist.Dir{dist.Right, dist.Left} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			peer := float64(1 - id)
			if got := tr.Recv(id, d); len(got) != 2 || got[0] != peer || got[1] != 0 {
				t.Errorf("rank %d received %v first, want the peer's round-0 strip [%v 0]", id, got, peer)
			}
			tr.Barrier()
			got, ok := tr.TryRecv(id, d)
			if !ok {
				t.Errorf("rank %d: the strip posted ahead of the barrier had not landed when the barrier released", id)
				return
			}
			if len(got) != 2 || got[0] != peer || got[1] != 1 {
				t.Errorf("rank %d polled %v after the barrier, want the peer's round-1 strip [%v 1]", id, got, peer)
			}
		}()
	}
	wg.Wait()
}

// eitherCompletion checks the per-edge completion contract of RecvEither —
// the overlap schedule's boundary-strip feed: when only one of two
// directed edges has a pending payload, RecvEither must complete on that
// edge (not block waiting for the other), and when both are pending, two
// calls must drain both edges exactly once with each payload arriving
// under its own direction.
func eitherCompletion(t *testing.T, f Factory) {
	tr := f(3, 1, false)
	// Only the left neighbour has posted: the call must complete on Left.
	tr.Send(0, dist.Right, []float64{1})
	if d, got := tr.RecvEither(1, dist.Left, dist.Right); d != dist.Left || len(got) != 1 || got[0] != 1 {
		t.Fatalf("RecvEither = (%v, %v), want the pending Left edge with payload [1]", d, got)
	}
	// The other edge still drains through a plain Recv afterwards.
	tr.Send(2, dist.Left, []float64{2})
	if got := tr.Recv(1, dist.Right); len(got) != 1 || got[0] != 2 {
		t.Fatalf("Right edge after RecvEither: %v", got)
	}

	// Both edges pending: two calls drain both exactly once, payloads
	// matched to their directions.
	tr.Send(0, dist.Right, []float64{10})
	tr.Send(2, dist.Left, []float64{20})
	want := map[dist.Dir]float64{dist.Left: 10, dist.Right: 20}
	for i := 0; i < 2; i++ {
		d, got := tr.RecvEither(1, dist.Left, dist.Right)
		w, pending := want[d]
		if !pending || len(got) != 1 || got[0] != w {
			t.Fatalf("drain call %d: RecvEither = (%v, %v), want one undrained edge of %v", i, d, got, want)
		}
		delete(want, d)
	}

	// The y axis, on a fresh 1x3 chain.
	trY := f(1, 3, false)
	trY.Send(2, dist.Up, []float64{3})
	if d, got := trY.RecvEither(1, dist.Up, dist.Down); d != dist.Down || len(got) != 1 || got[0] != 3 {
		t.Fatalf("RecvEither = (%v, %v), want the pending Down edge", d, got)
	}
	trY.Send(0, dist.Down, []float64{4})
	if d, got := trY.RecvEither(1, dist.Up, dist.Down); d != dist.Up || len(got) != 1 || got[0] != 4 {
		t.Fatalf("RecvEither = (%v, %v), want the remaining Up edge", d, got)
	}
}

// deliveryDeadline bounds how long a test polls for a strip that a backend
// delivers asynchronously (a socket write and a reader goroutine away).
const deliveryDeadline = 5 * time.Second

// pollTryRecv polls TryRecv until the strip sent toward rank to from
// direction d has been delivered.
func pollTryRecv(t *testing.T, tr dist.Transport[float64], to int, d dist.Dir) []float64 {
	t.Helper()
	for deadline := time.Now().Add(deliveryDeadline); ; time.Sleep(time.Millisecond) {
		if got, ok := tr.TryRecv(to, d); ok {
			return got
		}
		if time.Now().After(deadline) {
			t.Fatalf("TryRecv(%d, %v) saw no strip within %v of its Send", to, d, deliveryDeadline)
		}
	}
}

// tryRecv checks the non-blocking receive: an empty edge reports false
// without blocking, a delivered strip is consumed exactly once, and TryRecv
// and Recv drain the same FIFO.
func tryRecv(t *testing.T, f Factory) {
	tr := f(2, 1, false)
	if got, ok := tr.TryRecv(1, dist.Left); ok {
		t.Fatalf("TryRecv on an empty edge returned %v", got)
	}
	tr.Send(0, dist.Right, []float64{1})
	if got := pollTryRecv(t, tr, 1, dist.Left); len(got) != 1 || got[0] != 1 {
		t.Fatalf("TryRecv returned %v, want [1]", got)
	}
	if got, ok := tr.TryRecv(1, dist.Left); ok {
		t.Fatalf("TryRecv delivered the consumed strip again: %v", got)
	}
	// The next strips come out of the same queue through either call.
	tr.Send(0, dist.Right, []float64{2})
	got2 := tr.Recv(1, dist.Left)
	tr.Send(0, dist.Right, []float64{3})
	got3 := pollTryRecv(t, tr, 1, dist.Left)
	if len(got2) != 1 || got2[0] != 2 || len(got3) != 1 || got3[0] != 3 {
		t.Fatalf("Recv then TryRecv returned %v then %v, want [2] then [3]", got2, got3)
	}
}

// checkpoint checks the buddy-snapshot side channel: payload and generation
// stamp round-trip, and the snapshot neither waits behind nor consumes the
// halo strip queued on the same edge before it.
func checkpoint(t *testing.T, f Factory) {
	tr := f(2, 1, false)
	tr.Send(0, dist.Right, []float64{1})
	tr.SendCkpt(0, dist.Right, 7, []float64{1.5, -2.25, 3.125})
	data, gen, err := tr.RecvCkpt(1, dist.Left)
	if err != nil {
		t.Fatal(err)
	}
	if gen != 7 || len(data) != 3 || data[0] != 1.5 || data[1] != -2.25 || data[2] != 3.125 {
		t.Fatalf("snapshot arrived as gen=%d data=%v, want gen 7 [1.5 -2.25 3.125]", gen, data)
	}
	if got := tr.Recv(1, dist.Left); len(got) != 1 || got[0] != 1 {
		t.Fatalf("halo strip after a checkpoint on the same edge: %v, want [1]", got)
	}
}

// recovered runs fn and returns what it panicked with as an error (a
// non-error panic value is re-raised; nil when fn returned).
func recovered(fn func()) (err error) {
	defer func() {
		if p := recover(); p != nil {
			e, ok := p.(error)
			if !ok {
				panic(p)
			}
			err = e
		}
	}()
	fn()
	return nil
}

// abort parks one rank in each blocking call of a 3x1 chain — Recv,
// RecvEither, RecvCkpt and Barrier, none of which can complete — and
// requires Abort to wake all four with the cause: the halo receives and the
// barrier by panicking with it, the checkpoint receive by returning it.
// Later calls fail the same way, and a second Abort does not replace the
// cause.
func abort(t *testing.T, f Factory) {
	tr := f(3, 1, false)
	cause := errors.New("simulated rank death")
	calls := []struct {
		name string
		fn   func() error
	}{
		{"Recv", func() error { return recovered(func() { tr.Recv(0, dist.Right) }) }},
		{"RecvEither", func() error { return recovered(func() { tr.RecvEither(1, dist.Left, dist.Right) }) }},
		{"RecvCkpt", func() error { _, _, err := tr.RecvCkpt(2, dist.Left); return err }},
		{"Barrier", func() error { return recovered(tr.Barrier) }},
	}
	woke := make([]chan error, len(calls))
	for i, c := range calls {
		woke[i] = make(chan error, 1)
		go func() { woke[i] <- c.fn() }()
	}
	// Give the calls time to block; Abort is sticky, so one that has not
	// blocked yet fails with the cause just the same.
	time.Sleep(20 * time.Millisecond)
	tr.Abort(cause)
	tr.Abort(errors.New("a later cause"))
	for i, c := range calls {
		select {
		case err := <-woke[i]:
			if !errors.Is(err, cause) {
				t.Errorf("%s woke with %v, want the abort cause", c.name, err)
			}
		case <-time.After(deliveryDeadline):
			t.Fatalf("%s still blocked %v after Abort", c.name, deliveryDeadline)
		}
	}
	var fault *dist.Fault
	if err := recovered(func() { tr.Recv(1, dist.Left) }); !errors.Is(err, cause) || !errors.As(err, &fault) || fault.Rank != 1 || fault.Dir != dist.Left {
		t.Errorf("Recv after Abort panicked with %v, want a *dist.Fault for rank 1's Left edge carrying the first cause", err)
	}
}

// recvTimeout starves each blocking receive under a short receive timeout:
// the halo receives must panic with a *dist.Fault of class ClassTimeout
// naming the starved rank, the checkpoint receive must return an error —
// never a hang.
func recvTimeout(t *testing.T, f Factory) {
	tr := f(3, 1, false)
	tr.SetRecvTimeout(50 * time.Millisecond)
	starve(t, tr)
}

// optionsRecvTimeout sets the same bound through dist.Options.RecvTimeout:
// a cluster applies it to whichever backend its NewTransport resolves to,
// and a rank of that cluster starved of a halo — here by muting rank 0's
// sends — ends the batch as a classified fault, for both cluster shapes:
// RunRecover returns it once every rank has unwound, Run panics with it on
// the caller's goroutine. No rank goroutine may take the process down.
func optionsRecvTimeout(t *testing.T, f Factory) {
	opt := dist.Options[float64]{
		NewTransport: func(rx, ry int, ring bool) dist.Transport[float64] { return f(rx, ry, ring) },
		RecvTimeout:  50 * time.Millisecond,
	}
	op := &stencil.Op2D[float64]{St: stencil.Laplace5[float64](0.2), BC: grid.Clamp}
	cl, err := dist.NewClusterGrid(op, grid.New[float64](12, 4), 3, 1, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	starve(t, cl.Transport())

	opt.WrapTransport = func(tr dist.Transport[float64], _, _ int, _ bool) dist.Transport[float64] {
		return muteRank0{tr}
	}
	tiles, err := dist.NewClusterGrid(op, grid.New[float64](4, 12), 1, 3, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer tiles.Close()
	op3 := &stencil.Op3D[float64]{St: stencil.SevenPoint3D[float64](0.4, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1), BC: grid.Clamp}
	slabs, err := dist.NewCluster3D(op3, grid.New3D[float64](6, 5, 9), 3, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer slabs.Close()
	for name, c := range map[string]interface {
		Run(int)
		RunRecover(int) error
		Iter() int
	}{"tiles": tiles, "slabs": slabs} {
		var fault *dist.Fault
		if err := c.RunRecover(2); !errors.As(err, &fault) || fault.Class != dist.ClassTimeout {
			t.Fatalf("%s: RunRecover on a starved cluster = %v, want a ClassTimeout *dist.Fault", name, err)
		}
		if c.Iter() != 0 {
			t.Fatalf("%s: the faulted batch advanced Iter to %d", name, c.Iter())
		}
		if err := recovered(func() { c.Run(1) }); !errors.As(err, &fault) {
			t.Fatalf("%s: Run on the faulted cluster ended with %v, want a panic carrying the *dist.Fault", name, err)
		}
	}
}

// muteRank0 drops every halo strip rank 0 posts.
type muteRank0 struct{ dist.Transport[float64] }

func (m muteRank0) Send(from int, d dist.Dir, data []float64) {
	if from != 0 {
		m.Transport.Send(from, d, data)
	}
}

// starve blocks on rank 1's receives of a 3x1 chain nobody sends on.
func starve(t *testing.T, tr dist.Transport[float64]) {
	for name, fn := range map[string]func(){
		"Recv":       func() { tr.Recv(1, dist.Left) },
		"RecvEither": func() { tr.RecvEither(1, dist.Left, dist.Right) },
	} {
		var fault *dist.Fault
		if err := recovered(fn); !errors.As(err, &fault) {
			t.Fatalf("starved %s ended with %v, want a *dist.Fault", name, err)
		}
		if fault.Class != dist.ClassTimeout || fault.Rank != 1 {
			t.Fatalf("starved %s classified as %v for rank %d, want %v for rank 1: %v", name, fault.Class, fault.Rank, dist.ClassTimeout, fault)
		}
	}
	if _, _, err := tr.RecvCkpt(1, dist.Left); err == nil {
		t.Fatal("starved RecvCkpt returned no error")
	}
}

// metrics checks the per-edge counters after a known exchange: three
// 8-byte elements one way and two the other on a 2x1 chain count as one
// frame each, on the sender's edge as sent and on the receiver's as
// received.
func metrics(t *testing.T, f Factory) {
	tr := f(2, 1, false)
	tr.Send(0, dist.Right, []float64{1, 2, 3})
	tr.Recv(1, dist.Left)
	tr.Send(1, dist.Left, []float64{4, 5})
	tr.Recv(0, dist.Right)

	m := tr.Metrics()
	if len(m.Edges) != 2 {
		t.Fatalf("a 2x1 chain reported %d directed edges, want 2: %+v", len(m.Edges), m.Edges)
	}
	for _, e := range m.Edges {
		var sent, recv int64
		switch {
		case e.From == 0 && e.To == 1 && e.Dir == dist.Right.String():
			sent, recv = 24, 16
		case e.From == 1 && e.To == 0 && e.Dir == dist.Left.String():
			sent, recv = 16, 24
		default:
			t.Fatalf("unexpected edge %+v", e)
		}
		if e.FramesSent != 1 || e.BytesSent != sent || e.FramesRecv != 1 || e.BytesRecv != recv {
			t.Errorf("edge %d --%s--> %d counted %d frames / %d B sent, %d frames / %d B received; want 1 / %d and 1 / %d",
				e.From, e.Dir, e.To, e.FramesSent, e.BytesSent, e.FramesRecv, e.BytesRecv, sent, recv)
		}
	}
}

// closeTwice checks Close is idempotent, also after traffic.
func closeTwice(t *testing.T, f Factory) {
	tr := f(2, 1, false)
	tr.Send(0, dist.Right, []float64{1})
	tr.Recv(1, dist.Left)
	for i := 0; i < 2; i++ {
		if err := tr.Close(); err != nil {
			t.Fatalf("Close call %d: %v", i+1, err)
		}
	}
}

// barrierOrdering hammers the transport's barrier across generations from
// a 2x2 grid's worth of parties: no party may pass generation g+1 before
// every party has arrived at generation g.
func barrierOrdering(t *testing.T, f Factory) {
	const parties, gens = 4, 200
	tr := f(2, 2, false)
	var mu sync.Mutex
	arrived := make([]int, parties)

	var wg sync.WaitGroup
	for p := 0; p < parties; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for g := 0; g < gens; g++ {
				mu.Lock()
				arrived[p] = g + 1
				for _, a := range arrived {
					if a < g {
						mu.Unlock()
						t.Errorf("party passed generation %d while another was at %d", g, a)
						return
					}
				}
				mu.Unlock()
				tr.Barrier()
			}
		}(p)
	}
	wg.Wait()
}
