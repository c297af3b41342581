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
)

// WireFactory builds the Transport under test with a wire-level connection
// wrapper installed — the dist.TCPConfig.WrapConn seam. Backends without a
// wire (the in-process channel transport) pass nil to RunChaos and skip
// the wire cases. Implementations should configure a short death deadline
// and keepalive period (a second or less) so idle-edge faults are
// discovered and healed well inside the harness's receive timeout.
type WireFactory func(ranksX, ranksY int, ring bool, wrap func(net.Conn, int, int, dist.Dir) net.Conn) dist.Transport[float64]

// RunChaos executes the chaos conformance cases against transports built
// by f: seam faults (message drops surfacing as clean classified faults,
// delays and stalls absorbed bit-identically by the lockstep) run on any
// backend, and each wire fault type (drop, dup, reorder, corrupt,
// transient disconnect) must be healed bit-identically by a backend that
// provides a WireFactory.
func RunChaos(t *testing.T, f Factory, wf WireFactory) {
	t.Run("ChaosSeamDropFaults", func(t *testing.T) { seamDropFaults(t, f) })
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
	}{
		{"ChaosWireDropHeals", chaos.Fault{Type: chaos.Drop, Edge: edge, At: 3}},
		{"ChaosWireDupHeals", chaos.Fault{Type: chaos.Dup, Edge: edge, At: 4}},
		{"ChaosWireReorderHeals", chaos.Fault{Type: chaos.Reorder, Edge: edge, At: 5}},
		{"ChaosWireCorruptHeals", chaos.Fault{Type: chaos.Corrupt, Edge: edge, At: 6}},
		{"ChaosWireDisconnectHeals", chaos.Fault{Type: chaos.KillConn, Edge: edge, At: 7}},
	} {
		t.Run(c.name, func(t *testing.T) { wireFaultHeals(t, wf, c.fault) })
	}
}

// seamDropFaults drops a message above the transport, where no wire layer
// can heal it, and requires the receiver to surface a classified timeout
// fault — never a hang, never a garbage payload.
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

// wireFaultHeals scripts one wire fault under a deterministic seed and
// requires the transport's self-healing layer to absorb it: the full
// exchange delivers bit-identically, the fault demonstrably fired, and no
// edge was poisoned.
func wireFaultHeals(t *testing.T, wf WireFactory, fault chaos.Fault) {
	in := chaos.NewInjector([]chaos.Fault{fault}, 42)
	tr := wf(1, 2, false, in.WrapConn())
	tr.SetRecvTimeout(10 * time.Second)
	if err := exchangeExact(tr, 12); err != nil {
		t.Fatalf("under a wire %s fault: %v", fault.Type, err)
	}
	if in.Total() == 0 {
		t.Fatalf("scripted %s fault never fired", fault.Type)
	}
	if p := tr.Metrics().Poisoned; p != 0 {
		t.Fatalf("wire %s fault poisoned %d edges; healing should have absorbed it", fault.Type, p)
	}
}

// exchangeExact drives a 1x2 halo exchange from both ranks concurrently
// for iters barrier-separated iterations and verifies every payload
// bit-exactly. Returns the first divergence or fault.
func exchangeExact(tr dist.Transport[float64], iters int) error {
	var once sync.Once
	var firstErr error
	fail := func(err error) { once.Do(func() { firstErr = err }) }

	var wg sync.WaitGroup
	run := func(id, peer int, d dist.Dir) {
		defer wg.Done()
		defer func() {
			if p := recover(); p != nil {
				fail(fmt.Errorf("rank %d faulted: %v", id, p))
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
