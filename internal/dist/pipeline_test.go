package dist

import (
	"fmt"
	"testing"

	"stencilabft/internal/grid"
	"stencilabft/internal/stencil"
)

// TestClusterLiveRollback rolls a live cluster back: run to n with the
// ranks' state packed at m on the way, then RestoreState + SetIter(m) on the
// same cluster — at depth 1 with every rank's strip for iteration n already
// in its neighbour's inbox — and run to n again. The strips cut from state
// n must be discarded, not folded into iteration m: the second arrival at n
// is bit-identical to the first and to the single-process reference, on
// both backends. Depth 2 pins the other half of the rule: nothing is
// pre-posted there, so the same rollback finds nothing to discard. Gather
// and Close then run with strips posted and must neither hang nor leak
// (TestClusterCloseReleasesGoroutines counts the goroutines).
func TestClusterLiveRollback(t *testing.T) {
	const nx, ny, m, n = 33, 40, 6, 14
	op := &stencil.Op2D[float64]{St: stencil.Laplace5[float64](0.2), BC: grid.Clamp}
	init := testInit(nx, ny)
	want := reference(t, op, init, n)

	for _, tcp := range []bool{false, true} {
		for _, depth := range []int{1, 2} {
			t.Run(fmt.Sprintf("tcp=%v/depth=%d", tcp, depth), func(t *testing.T) {
				opt := strictOpts()
				opt.HaloDepth = depth
				if tcp {
					opt.NewTransport = func(rx, ry int, ring bool) Transport[float64] {
						tr, err := NewTCPTransport[float64](TCPConfig{RanksX: rx, RanksY: ry, Ring: ring})
						if err != nil {
							t.Fatalf("NewTCPTransport: %v", err)
						}
						return tr
					}
				}
				c, err := NewClusterGrid(op, init, 2, 2, opt)
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()

				c.Run(m)
				packs := make(map[int][]float64)
				for _, id := range c.LocalRanks() {
					packs[id] = make([]float64, c.StateLen(id))
					c.PackState(id, packs[id])
				}
				for c.Iter() < n {
					c.Step() // one Run per sweep, as the benchmark drives a cluster
				}
				if diff := c.Gather().MaxAbsDiff(want); diff != 0 {
					t.Fatalf("uninterrupted run deviates from the reference by %g", diff)
				}

				for id, buf := range packs {
					c.RestoreState(id, buf)
				}
				c.SetIter(m)
				c.Run(n - m)
				if c.Iter() != n {
					t.Fatalf("rolled-back cluster at iteration %d, want %d", c.Iter(), n)
				}
				if diff := c.Gather().MaxAbsDiff(want); diff != 0 {
					t.Fatalf("rolled-back run deviates from the uninterrupted one by %g: a strip posted before the rollback was folded in", diff)
				}
				if ts := c.Stats(); ts.Detections != 0 {
					t.Fatalf("rollback raised a false positive: %+v", ts)
				}
			})
		}
	}
}
