package dist

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stencilabft/internal/grid"
	"stencilabft/internal/stencil"
)

// TestEdgeBoxPoisonConcurrentDeath pins the poison contract under a
// concurrent rank death (run it with -race): receivers blocked on halos,
// tokens and checkpoints all wake with the same first cause, and out of
// many racing poison calls — a dying connection reader racing repeated
// Close calls — exactly one reports having poisoned the box.
func TestEdgeBoxPoisonConcurrentDeath(t *testing.T) {
	box := newEdgeBox[float64](4)
	cause := errors.New("peer process died")

	const receivers = 4
	errs := make(chan error, 3*receivers)
	var wg sync.WaitGroup
	for i := 0; i < receivers; i++ {
		wg.Add(3)
		go func() {
			defer wg.Done()
			_, _, err := boxWait(5*time.Second, "the halo strip", box, box.halo, nil, nil)
			errs <- err
		}()
		go func() {
			defer wg.Done()
			_, _, err := boxWait(5*time.Second, "the barrier token", box, box.tok, nil, nil)
			errs <- err
		}()
		go func() {
			defer wg.Done()
			_, _, err := boxWait(5*time.Second, "the buddy checkpoint", box, box.ck, nil, nil)
			errs <- err
		}()
	}

	const poisoners = 8
	var first atomic.Int64
	var pg sync.WaitGroup
	for i := 0; i < poisoners; i++ {
		pg.Add(1)
		go func() {
			defer pg.Done()
			if box.poison(cause) {
				first.Add(1)
			}
			// Repeats — a second Close, a late connection-reader fault —
			// must stay safe and unreported.
			if box.poison(errors.New("late repeat cause")) {
				first.Add(1)
			}
		}()
	}
	pg.Wait()
	wg.Wait()
	close(errs)

	if got := first.Load(); got != 1 {
		t.Fatalf("%d poison calls reported first, want exactly 1", got)
	}
	n := 0
	for err := range errs {
		n++
		if !errors.Is(err, cause) {
			t.Fatalf("receiver woke with %v, want the first cause", err)
		}
	}
	if n != 3*receivers {
		t.Fatalf("%d receivers woke, want %d", n, 3*receivers)
	}
}

// TestRunRecoverUnwindsOnAbort pins the tolerant run: when one rank's
// transport aborts mid-run (the in-process stand-in for a peer process
// death), RunRecover returns the cause after every rank goroutine has
// unwound, and the cluster's iteration counter stays at the last completed
// Run — the mid-iteration state is explicitly not advanced.
func TestRunRecoverUnwindsOnAbort(t *testing.T) {
	op := &stencil.Op2D[float64]{St: stencil.Laplace5(0.2), BC: grid.Clamp}
	init := testInit(32, 32)

	opt := strictOpts()
	var c *Cluster[float64]
	cause := errors.New("simulated rank death")
	opt.AfterStep = func(rank, iter int) {
		if rank == 3 && iter == 5 {
			c.Transport().Abort(cause)
		}
	}
	var err error
	c, err = NewClusterGrid(op, init, 2, 2, opt)
	if err != nil {
		t.Fatal(err)
	}
	c.Run(3) // healthy prefix
	runErr := c.RunRecover(20)
	if runErr == nil {
		t.Fatal("RunRecover completed through an aborted transport")
	}
	if !errors.Is(runErr, cause) && !strings.Contains(runErr.Error(), cause.Error()) {
		t.Fatalf("RunRecover error %v does not carry the abort cause", runErr)
	}
	if c.Iter() != 3 {
		t.Fatalf("iteration counter advanced to %d through a faulted run, want 3", c.Iter())
	}
}

// TestClusterStateRoundTripBitIdentical pins the resilience snapshot
// contract end to end: packing every rank at iteration k, restoring the
// packs into a freshly built cluster, rebasing with SetIter and running the
// remainder must reproduce the uninterrupted run bit for bit — the property
// the whole rollback-recovery scheme rests on.
func TestClusterStateRoundTripBitIdentical(t *testing.T) {
	const nx, ny, k, total = 33, 29, 10, 24
	for _, bc := range []grid.Boundary{grid.Clamp, grid.Periodic, grid.Mirror} {
		op := &stencil.Op2D[float64]{St: stencil.Laplace5(0.2), BC: bc, BCValue: 42}
		init := testInit(nx, ny)

		c, err := NewClusterGrid(op, init, 2, 2, strictOpts())
		if err != nil {
			t.Fatal(err)
		}
		c.Run(k)
		packs := make(map[int][]float64)
		for _, id := range c.LocalRanks() {
			buf := make([]float64, c.StateLen(id))
			c.PackState(id, buf)
			packs[id] = buf
		}
		c.Run(total - k)
		want := c.Gather()

		// A cold cluster restored from the packs must continue identically.
		r, err := NewClusterGrid(op, init, 2, 2, strictOpts())
		if err != nil {
			t.Fatal(err)
		}
		for id, buf := range packs {
			r.RestoreState(id, buf)
		}
		r.SetIter(k)
		r.Run(total - k)
		if r.Iter() != total {
			t.Fatalf("restored cluster at iteration %d, want %d", r.Iter(), total)
		}
		if diff := r.Gather().MaxAbsDiff(want); diff != 0 {
			t.Fatalf("%v: restored run deviates from uninterrupted run by %g", bc, diff)
		}
	}
}

// TestChanTransportCkpt pins the in-process checkpoint channel: a
// snapshot sent toward a neighbour arrives intact with its iteration stamp,
// independent of the halo FIFO, and an aborted transport surfaces the cause
// as an error (never a panic) from RecvCkpt.
func TestChanTransportCkpt(t *testing.T) {
	tr := NewChanTransport[float64](2, 1, false)
	snap := []float64{1.5, -2.25, 3.125}
	tr.SendCkpt(0, Right, 7, snap)
	data, gen, err := tr.RecvCkpt(1, Left)
	if err != nil {
		t.Fatal(err)
	}
	if gen != 7 || len(data) != 3 || data[0] != 1.5 || data[2] != 3.125 {
		t.Fatalf("checkpoint arrived as gen=%d data=%v", gen, data)
	}

	cause := errors.New("buddy died")
	tr.Abort(cause)
	if _, _, err := tr.RecvCkpt(0, Right); !errors.Is(err, cause) {
		t.Fatalf("RecvCkpt after abort = %v, want the abort cause", err)
	}
}
