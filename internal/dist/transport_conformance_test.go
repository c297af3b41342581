package dist_test

import (
	"net"
	"testing"
	"time"

	"stencilabft/internal/chaos"
	"stencilabft/internal/dist"
	"stencilabft/internal/dist/disttest"
)

// TestChanTransportConformance runs the default in-process channel backend
// through the disttest conformance harness — the same suite a future MPI or
// socket Transport implementation runs to prove itself a drop-in.
func TestChanTransportConformance(t *testing.T) {
	disttest.Run(t, func(rx, ry int, ring bool) dist.Transport[float64] {
		return dist.NewChanTransport[float64](rx, ry, ring)
	})
}

// TestTCPTransportConformance certifies the socket backend with the exact
// same suite: every rank hosted in one process, but every halo strip and
// barrier token crossing a real loopback TCP connection.
func TestTCPTransportConformance(t *testing.T) {
	disttest.Run(t, func(rx, ry int, ring bool) dist.Transport[float64] {
		tr, err := dist.NewTCPTransport[float64](dist.TCPConfig{RanksX: rx, RanksY: ry, Ring: ring})
		if err != nil {
			t.Fatalf("NewTCPTransport(%dx%d, ring=%v): %v", rx, ry, ring, err)
		}
		t.Cleanup(func() { tr.Close() })
		return tr
	})
}

// TestChaosWrapperConformance runs the suite a third time through the chaos
// seam wrapper with no fault scheduled: a wrapper is transparent when the
// Transport it returns passes exactly what the backend it wraps passes.
func TestChaosWrapperConformance(t *testing.T) {
	disttest.Run(t, func(rx, ry int, ring bool) dist.Transport[float64] {
		return chaos.Wrap[float64](dist.NewChanTransport[float64](rx, ry, ring), chaos.NewInjector(nil, 1), rx, ry, ring)
	})
}

// TestChanTransportChaos runs the channel backend through the chaos
// cases: seam drops must fault cleanly, stragglers must be absorbed. The
// channel backend has no wire, so the wire-fault cases are skipped.
func TestChanTransportChaos(t *testing.T) {
	disttest.RunChaos(t, func(rx, ry int, ring bool) dist.Transport[float64] {
		return dist.NewChanTransport[float64](rx, ry, ring)
	}, nil)
}

// TestTCPTransportChaos certifies the socket backend's self-healing layer
// under scripted wire faults: dropped, duplicated, reordered and corrupted
// frames plus transient disconnects must all end in bit-identical delivery
// with no poisoned edges, and seam faults behave exactly as on the channel
// backend. The short keepalive lets idle-edge losses heal in test time.
func TestTCPTransportChaos(t *testing.T) {
	disttest.RunChaos(t, func(rx, ry int, ring bool) dist.Transport[float64] {
		tr, err := dist.NewTCPTransport[float64](dist.TCPConfig{RanksX: rx, RanksY: ry, Ring: ring})
		if err != nil {
			t.Fatalf("NewTCPTransport(%dx%d, ring=%v): %v", rx, ry, ring, err)
		}
		t.Cleanup(func() { tr.Close() })
		return tr
	}, func(rx, ry int, ring bool, wrap func(net.Conn, int, int, dist.Dir) net.Conn) dist.Transport[float64] {
		tr, err := dist.NewTCPTransport[float64](dist.TCPConfig{
			RanksX: rx, RanksY: ry, Ring: ring,
			WrapConn:        wrap,
			DeathDeadline:   5 * time.Second,
			KeepalivePeriod: 200 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("NewTCPTransport(%dx%d, ring=%v, chaos): %v", rx, ry, ring, err)
		}
		t.Cleanup(func() { tr.Close() })
		return tr
	})
}
