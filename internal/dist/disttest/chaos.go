package disttest

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"stencilabft/internal/chaos"
	"stencilabft/internal/dist"
	"stencilabft/internal/grid"
	"stencilabft/internal/stencil"
)

// WireFactory builds the Transport under test with a wire-level connection
// wrapper installed — the dist.TCPConfig.WrapConn seam. Backends without a
// wire (the in-process channel transport) pass nil to RunChaos and skip
// the wire cases.
type WireFactory func(ranksX, ranksY int, ring bool, wrap func(net.Conn, int, int, dist.Dir) net.Conn) dist.Transport[float64]

// RunChaos executes the chaos conformance cases against transports built
// by f: seam faults (message drops surfacing as clean classified faults —
// at once when the next strip on the edge comes in the lost one's place —
// delays and stalls absorbed bit-identically by the lockstep) run on any
// backend, and each wire fault type (corrupt, a killed connection) must
// fail its edge as a classified fault, never a hang, on a backend that
// provides a WireFactory.
func RunChaos(t *testing.T, f Factory, wf WireFactory) {
	t.Run("ChaosSeamDropFaults", func(t *testing.T) { seamDropFaults(t, f) })
	t.Run("ChaosSeamDropClusterFailsAtOnce", func(t *testing.T) { seamDropCluster(t, f) })
	t.Run("ChaosSeamDelayAbsorbed", func(t *testing.T) {
		seamAbsorbed(t, f, chaos.Fault{Type: chaos.Delay, Edge: &chaos.Edge{From: 0, To: 1}, At: 1, Count: 2, Ms: 40}, chaos.Delay, 2)
	})
	t.Run("ChaosSeamStallAbsorbed", func(t *testing.T) {
		seamAbsorbed(t, f, chaos.Fault{Type: chaos.Stall, Rank: 1, At: 2, Count: 1, Ms: 40}, chaos.Stall, 1)
	})
	if wf == nil {
		return
	}
	edge := &chaos.Edge{From: 0, To: 1}
	for _, c := range []struct {
		name  string
		fault chaos.Fault
		class dist.FaultClass
	}{
		{"ChaosWireCorruptFaults", chaos.Fault{Type: chaos.Corrupt, Edge: edge, At: 6}, dist.ClassCorrupt},
		{"ChaosWireDisconnectFaults", chaos.Fault{Type: chaos.KillConn, Edge: edge, At: 7}, dist.ClassPermanent},
	} {
		t.Run(c.name, func(t *testing.T) { wireFaultFails(t, wf, c.fault, c.class) })
	}
}

// seamDropFaults drops a message above the transport with nothing behind
// it on the edge, and requires the receiver to surface a classified
// timeout fault — never a hang, never a garbage payload.
func seamDropFaults(t *testing.T, f Factory) {
	inner := f(1, 2, false)
	inner.SetRecvTimeout(400 * time.Millisecond)
	in := chaos.NewInjector([]chaos.Fault{{Type: chaos.Drop, Edge: &chaos.Edge{From: 0, To: 1}}}, 1)
	tr := chaos.Wrap(inner, in, 1, 2, false)

	tr.Send(0, dist.Down, []float64{1}) // suppressed by the drop
	var fault *dist.Fault
	if err := recovered(func() { tr.Recv(1, dist.Up) }); !errors.As(err, &fault) {
		t.Fatalf("receiver of a seam-dropped message ended with %v instead of a *dist.Fault", err)
	}
	if fault.Class != dist.ClassTimeout {
		t.Fatalf("seam drop surfaced as class %v, want %v: %v", fault.Class, dist.ClassTimeout, fault)
	}
	if got := in.Stats()[chaos.Drop]; got != 1 {
		t.Fatalf("injector fired %d drops, want 1", got)
	}
}

// seamDropCluster drops one x strip of a running 2x1 cluster at the seam.
// The sender posts the next round's strip ahead of the barrier, so without
// the backend told of the loss (Transport.Lose) the receiver would take
// that strip for the lost one and run on with a wrong halo and nothing to
// time out on. Told, it fails at once with a classified timeout naming the
// edge — long before the receive timeout, which is there for a strip that
// never comes at all.
func seamDropCluster(t *testing.T, f Factory) {
	const nx, ny, iters, timeout = 32, 16, 20, 10 * time.Second
	op := &stencil.Op2D[float64]{St: stencil.Laplace5[float64](0.2), BC: grid.Clamp}
	init := grid.New[float64](nx, ny)
	init.FillFunc(func(x, y int) float64 { return 80 + float64((x*31+y*17)%23) })
	in := chaos.NewInjector([]chaos.Fault{{Type: chaos.Drop, Edge: &chaos.Edge{From: 0, To: 1}, At: 5}}, 1)
	c, err := dist.NewClusterGrid(op, init, 2, 1, dist.Options[float64]{
		NewTransport: func(rx, ry int, ring bool) dist.Transport[float64] { return f(rx, ry, ring) },
		RecvTimeout:  timeout,
		WrapTransport: func(tr dist.Transport[float64], rx, ry int, ring bool) dist.Transport[float64] {
			return chaos.Wrap(tr, in, rx, ry, ring)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	t0 := time.Now()
	err = c.RunRecover(iters)
	took := time.Since(t0)
	var fault *dist.Fault
	if !errors.As(err, &fault) {
		t.Fatalf("a dropped strip ended the run with %v, want a *dist.Fault", err)
	}
	if fault.Rank != 1 || fault.Dir != dist.Left || fault.Peer != 0 || fault.Class != dist.ClassTimeout {
		t.Fatalf("fault %+v does not name rank 1's edge from rank 0 on its left as a timeout", fault)
	}
	if took > timeout/2 {
		t.Fatalf("the dropped strip took %v to surface, want it found by the frame that came in its place", took)
	}
	if got := in.Stats()[chaos.Drop]; got != 1 {
		t.Fatalf("injector fired %d drops, want 1", got)
	}
}

// seamAbsorbed injects a scheduling fault (delay or stall) and requires
// the exchange to stay bit-identical — the lockstep absorbs stragglers.
func seamAbsorbed(t *testing.T, f Factory, fault chaos.Fault, typ string, wantFires int64) {
	in := chaos.NewInjector([]chaos.Fault{fault}, 7)
	tr := chaos.Wrap(f(1, 2, false), in, 1, 2, false)
	if err := exchangeExact(tr, 6); err != nil {
		t.Fatal(err)
	}
	if got := in.Stats()[typ]; got != wantFires {
		t.Fatalf("injector fired %d %s faults, want %d", got, typ, wantFires)
	}
}

// wireFaultFails scripts one wire fault under a deterministic seed and
// requires the exchange to end in a classified *dist.Fault of class want
// well inside the receive timeout — never a hang, never a wrong payload —
// with the fault demonstrably fired and the broken edge counted as
// poisoned.
func wireFaultFails(t *testing.T, wf WireFactory, fault chaos.Fault, want dist.FaultClass) {
	const timeout = 10 * time.Second
	in := chaos.NewInjector([]chaos.Fault{fault}, 42)
	tr := wf(1, 2, false, in.WrapConn())
	tr.SetRecvTimeout(timeout)
	t0 := time.Now()
	err := exchangeExact(tr, 12)
	var f *dist.Fault
	if !errors.As(err, &f) {
		t.Fatalf("under a wire %s fault the exchange ended with %v, want a *dist.Fault", fault.Type, err)
	}
	if f.Class != want {
		t.Fatalf("wire %s fault classified %v, want %v: %v", fault.Type, f.Class, want, f)
	}
	if took := time.Since(t0); took > timeout/2 {
		t.Fatalf("wire %s fault took %v to surface", fault.Type, took)
	}
	if in.Total() == 0 {
		t.Fatalf("scripted %s fault never fired", fault.Type)
	}
	if p := tr.Metrics().Poisoned; p < 1 {
		t.Fatalf("wire %s fault poisoned %d edges, want the broken one counted", fault.Type, p)
	}
}

// exchangeExact drives a 1x2 halo exchange from both ranks concurrently
// for iters barrier-separated iterations and verifies every payload
// bit-exactly. Returns the first divergence, or the first fault a rank
// panicked with (wrapped, so errors.As finds a *dist.Fault). A faulted rank
// aborts the transport, so its partner unwinds instead of waiting.
func exchangeExact(tr dist.Transport[float64], iters int) error {
	var once sync.Once
	var firstErr error
	fail := func(err error) { once.Do(func() { firstErr = err }) }

	var wg sync.WaitGroup
	run := func(id, peer int, d dist.Dir) {
		defer wg.Done()
		defer func() {
			if p := recover(); p != nil {
				err, ok := p.(error)
				if !ok {
					err = fmt.Errorf("%v", p)
				}
				fail(fmt.Errorf("rank %d faulted: %w", id, err))
				tr.Abort(err)
			}
		}()
		for it := 0; it < iters; it++ {
			tr.Send(id, d, []float64{float64(1000*id + it)})
			got := tr.Recv(id, d)
			if want := float64(1000*peer + it); len(got) != 1 || got[0] != want {
				fail(fmt.Errorf("rank %d iteration %d: received %v, want [%v] — delivery not bit-identical", id, it, got, want))
			}
			tr.Barrier()
		}
	}
	wg.Add(2)
	go run(0, 1, dist.Down)
	go run(1, 0, dist.Up)
	wg.Wait()
	return firstErr
}
