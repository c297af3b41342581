package chaos

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"stencilabft/internal/checksum"
	"stencilabft/internal/core"
	"stencilabft/internal/dist"
	"stencilabft/internal/grid"
	"stencilabft/internal/stencil"
)

// pollProbe sits under the chaos wrapper and counts the overlap schedule's
// receives as they reach the backend: its progress polls, the polls that
// found their strip, and the blocking receives that take what a poll missed.
type pollProbe struct {
	dist.Transport[float64]
	polls, hits, blocking atomic.Int64
}

func (p *pollProbe) TryRecv(to int, d dist.Dir) ([]float64, bool) {
	p.polls.Add(1)
	in, ok := p.Transport.TryRecv(to, d)
	if ok {
		p.hits.Add(1)
	}
	return in, ok
}

func (p *pollProbe) Recv(to int, d dist.Dir) []float64 {
	p.blocking.Add(1)
	return p.Transport.Recv(to, d)
}

func (p *pollProbe) RecvEither(to int, a, b dist.Dir) (dist.Dir, []float64) {
	p.blocking.Add(1)
	return p.Transport.RecvEither(to, a, b)
}

// TestWrappedClusterRunsOverlapSchedule pins that the seam wrapper is
// transparent to the rank schedule: a chaos-wrapped 2x2 cluster, one strip
// of it held back by a Delay fault, polls each of its edges once an
// iteration — the production overlap path — and takes every strip exactly
// once, by the poll or by a blocking receive after it; and the delayed run
// stays bit-identical to the single-process reference. How the strips split
// between polls and blocking receives is the scheduler's: a pipelined strip
// may land before its receiver polls, so neither count, nor any wait time, is
// pinned.
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
	c, err := dist.NewClusterGrid(op, init, 2, 2, dist.Options[float64]{
		Detector: checksum.Detector[float64]{Epsilon: 1e-9, AbsFloor: 1},
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
	// Each rank of the 2x2 grid has one x and one y neighbour, so it polls
	// two edges an iteration and takes two strips; the x strips posted for
	// the iteration after the last stay in the inboxes.
	strips := int64(4 * 2 * iters)
	if got := probe.polls.Load(); got != strips {
		t.Errorf("the wrapped cluster polled its edges %d times, want %d: TryRecv did not reach the backend once an edge an iteration", got, strips)
	}
	if got := probe.hits.Load() + probe.blocking.Load(); got != strips {
		t.Errorf("%d strips taken by polls and %d by blocking receives, want %d in all",
			probe.hits.Load(), probe.blocking.Load(), strips)
	}
}

// TestSeamDropOnChannelsFailsTheRound pins the channel backend's answer to
// a seam drop (the CI chaos job's plan-drop.json): the x strip the sender
// posts for the next round ahead of the barrier would otherwise stand in for
// the lost one, and the run would end on a wrong halo with nothing timed
// out. Stamped with its round, it fails the receive at once as a classified
// timeout naming the edge — long before the receive timeout, which is there
// for a strip that never comes at all.
func TestSeamDropOnChannelsFailsTheRound(t *testing.T) {
	const nx, ny, iters = 64, 64, 40
	op := &stencil.Op2D[float64]{St: stencil.Laplace5[float64](0.2), BC: grid.Clamp}
	init := grid.New[float64](nx, ny)
	init.FillFunc(func(x, y int) float64 { return 80 + float64((x*31+y*17)%23) })
	in := NewInjector([]Fault{{Type: Drop, Edge: &Edge{From: 0, To: 1}, At: 5}}, 1)
	c, err := dist.NewClusterGrid(op, init, 2, 2, dist.Options[float64]{
		RecvTimeout: 10 * time.Second,
		WrapTransport: func(tr dist.Transport[float64], rx, ry int, ring bool) dist.Transport[float64] {
			return Wrap(tr, in, rx, ry, ring)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	t0 := time.Now()
	err = c.RunRecover(iters)
	took := time.Since(t0)
	var f *dist.Fault
	if !errors.As(err, &f) {
		t.Fatalf("a dropped strip ended the run with %v, want a *dist.Fault", err)
	}
	if f.Rank != 1 || f.Dir != dist.Left || f.Peer != 0 || f.Class != dist.ClassTimeout || f.Barrier {
		t.Fatalf("fault %+v does not name rank 1's receive from rank 0 on its left as a timeout", f)
	}
	if !strings.Contains(f.Error(), "timeout") {
		t.Fatalf("fault %q does not say timeout", f)
	}
	if took > 5*time.Second {
		t.Fatalf("the dropped strip took %v to surface, want it found by the next round's", took)
	}
	if got := in.Stats()[Drop]; got != 1 {
		t.Fatalf("injector fired %d drops, want 1", got)
	}
}
