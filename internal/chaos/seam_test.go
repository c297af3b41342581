package chaos

import (
	"sync/atomic"
	"testing"

	"stencilabft/internal/checksum"
	"stencilabft/internal/core"
	"stencilabft/internal/dist"
	"stencilabft/internal/grid"
	"stencilabft/internal/stencil"
	"stencilabft/internal/telemetry"
)

// pollProbe sits under the chaos wrapper and counts the overlap schedule's
// progress polls as they reach the backend.
type pollProbe struct {
	dist.Transport[float64]
	polls atomic.Int64
}

func (p *pollProbe) TryRecv(to int, d dist.Dir) ([]float64, bool) {
	p.polls.Add(1)
	return p.Transport.TryRecv(to, d)
}

// TestWrappedClusterRunsOverlapSchedule pins that the seam wrapper is
// transparent to the rank schedule: a chaos-wrapped 2x2 cluster polls its
// edges, sweeps its interior while strips travel and blocks only for the
// strip a Delay fault holds back — the production overlap path, not an
// ordered-receive fallback — and the delayed run stays bit-identical to the
// single-process reference.
func TestWrappedClusterRunsOverlapSchedule(t *testing.T) {
	const nx, ny, iters = 32, 32, 6
	op := &stencil.Op2D[float64]{St: stencil.BoxBlur[float64](), BC: grid.Clamp}
	init := grid.New[float64](nx, ny)
	init.FillFunc(func(x, y int) float64 { return 80 + float64((x*31+y*17)%23) })
	ref, err := core.NewNone2D(op, init, core.Options[float64]{})
	if err != nil {
		t.Fatal(err)
	}
	ref.Run(iters)

	in := NewInjector([]Fault{{Type: Delay, Edge: &Edge{From: 0, To: 1}, At: 1, Count: 2, Ms: 30}}, 1)
	probe := &pollProbe{}
	tel := telemetry.New(0)
	c, err := dist.NewClusterGrid(op, init, 2, 2, dist.Options[float64]{
		Detector:  checksum.Detector[float64]{Epsilon: 1e-9, AbsFloor: 1},
		Telemetry: tel,
		WrapTransport: func(tr dist.Transport[float64], rx, ry int, ring bool) dist.Transport[float64] {
			probe.Transport = tr
			return Wrap[float64](probe, in, rx, ry, ring)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Run(iters)

	if diff := c.Gather().MaxAbsDiff(ref.Grid()); diff != 0 {
		t.Fatalf("delayed wrapped cluster deviates from the reference by %g", diff)
	}
	if got := in.Stats()[Delay]; got != 2 {
		t.Fatalf("injector fired %d delays, want 2", got)
	}
	if probe.polls.Load() == 0 {
		t.Error("the wrapped cluster never polled an edge: TryRecv did not reach the backend")
	}
	tm := c.Stats().Timing
	if tm.InteriorSweepNs == 0 || tm.BoundaryWaitNs == 0 {
		t.Errorf("wrapped cluster recorded interior-sweep %d ns, boundary-wait %d ns; want both phases of the overlap schedule",
			tm.InteriorSweepNs, tm.BoundaryWaitNs)
	}
}
