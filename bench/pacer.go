package main

import abft "stencilabft"

// atReferencePace converts a time expressed in pacer operations — each one
// sweeps sweeps over cells cells — into seconds on a host where one pacer
// cell-update takes nsPerCell. Workloads pass the pace the pacer ran at, for
// their working-set size, on the sandbox the benchmark was written on
// (2-vCPU Xeon 2.1 GHz, go1.24, a calm hour): 1.3 ns in L2, 1.45–1.7 ns
// from L3, 2.0 ns at 2 M cells.
func atReferencePace(inPacerOps sample, cells, sweeps int, nsPerCell float64) sample {
	return inPacerOps.scaled(float64(cells) * float64(sweeps) * nsPerCell * 1e-9)
}

// pacer is a fixed piece of work written in the benchmark: a plain-loop
// five-point average over as many cells as the workload's domain has, in
// the workload's element type. It calls nothing in the program under test,
// so no change to the program moves it.
//
// It exists because the shared hosts this runs on change pace: the same
// one-thread sweep takes 1.8 ms or 2.3 ms for seconds at a time, and for
// minutes at a time everything was up to 50 % slower than an hour before,
// with nothing in /proc/stat to show for it. Raw seconds of ten runs then
// spread by 10–50 %. The pacer takes turns with the workload's runners, so
// every sweep of theirs has a pacer sweep a few milliseconds away, slowed by
// the same co-tenants; time over pacer time spreads by 1–3 %. Every absolute
// time the benchmark reports end to end is that quotient, scaled by the
// pacer's reference pace so that it reads in seconds: the time the
// operation takes on a host that runs the pacer at the pace this sandbox
// ran it at on a calm day (atReferencePace).
type pacer[T abft.Float] struct {
	nx, ny   int
	src, dst []T
	iter     int
	out      *abft.Grid[T]
}

func newPacer[T abft.Float](cells int) *pacer[T] {
	nx := 1
	for nx*nx < cells {
		nx *= 2
	}
	ny := max(3, cells/nx)
	p := &pacer[T]{nx: nx, ny: ny, src: make([]T, nx*ny), dst: make([]T, nx*ny), out: abft.New[T](1, 1)}
	for i := range p.src {
		p.src[i] = T(100 + i%7)
		p.dst[i] = p.src[i]
	}
	return p
}

func (p *pacer[T]) Step() {
	nx, src, dst := p.nx, p.src, p.dst
	for y := 1; y < p.ny-1; y++ {
		row := y * nx
		for x := 1; x < nx-1; x++ {
			i := row + x
			dst[i] = 0.2 * (src[i] + src[i-1] + src[i+1] + src[i-nx] + src[i+nx])
		}
	}
	p.src, p.dst = dst, src
	p.iter++
}

func (p *pacer[T]) cells() int { return p.nx * p.ny }

func (p *pacer[T]) Run(n int) {
	for i := 0; i < n; i++ {
		p.Step()
	}
}

func (p *pacer[T]) Grid() *abft.Grid[T]     { return p.out }
func (p *pacer[T]) Grid3D() *abft.Grid3D[T] { return nil }
func (p *pacer[T]) Iter() int               { return p.iter }
func (p *pacer[T]) Stats() abft.Stats       { return abft.Stats{} }
func (p *pacer[T]) Finalize()               {}
