package dist

import (
	"runtime"
	"testing"
	"time"

	"stencilabft/internal/grid"
	"stencilabft/internal/stencil"
)

// TestClusterCloseReleasesGoroutines is the goroutine accounting of a
// cluster's life: build, Run, Close must return the process to the
// goroutine count it started from — the persistent rank goroutines (tile
// ranks and slab ranks alike) on the channel backend, plus the listener,
// per-edge readers and keepalive tickers on the socket backend, which
// Cluster.Close reaches through Transport.Close. Run leaves the next
// iteration's x strips posted (the pipelined exchange), so Close is
// exercised with strips in the inboxes.
func TestClusterCloseReleasesGoroutines(t *testing.T) {
	op := &stencil.Op2D[float64]{St: stencil.Laplace5(0.2), BC: grid.Clamp}
	op3 := &stencil.Op3D[float64]{St: star7(), BC: grid.Clamp}
	for _, tc := range []struct {
		name   string
		rx, ry int // ry slabs when rx is 0
		tcp    bool
	}{
		{"chan2x2", 2, 2, false},
		{"tcp2x1", 2, 1, true},
		{"slabs3", 0, 3, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			opt := strictOpts()
			if tc.tcp {
				opt.NewTransport = func(rx, ry int, ring bool) Transport[float64] {
					tr, err := NewTCPTransport[float64](TCPConfig{RanksX: rx, RanksY: ry, Ring: ring})
					if err != nil {
						t.Fatalf("NewTCPTransport: %v", err)
					}
					return tr
				}
			}
			var c interface {
				Run(int)
				Close() error
			}
			var err error
			if tc.rx == 0 {
				c, err = NewCluster3D(op3, testInit3D(8, 8, 9), tc.ry, opt)
			} else {
				c, err = NewClusterGrid(op, testInit(32, 32), tc.rx, tc.ry, opt)
			}
			if err != nil {
				t.Fatal(err)
			}
			c.Run(4)
			if during := runtime.NumGoroutine(); during <= before {
				t.Fatalf("a live cluster runs %d goroutines over a baseline of %d; the test measures nothing", during, before)
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			// Exiting goroutines are not instantaneously reaped.
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(5 * time.Millisecond)
			}
			if after := runtime.NumGoroutine(); after > before {
				t.Fatalf("goroutines: %d before the cluster, %d after Close", before, after)
			}
		})
	}
}
