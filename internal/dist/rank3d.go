package dist

import (
	"fmt"

	"stencilabft/internal/core"
	"stencilabft/internal/errs"
	"stencilabft/internal/fault"
	"stencilabft/internal/grid"
	"stencilabft/internal/num"
	"stencilabft/internal/stencil"
	"stencilabft/internal/telemetry"
)

// Cluster3D runs a 3-D stencil domain decomposed into z-layer slabs, each
// rank protected by its own per-layer online ABFT instance — the layer
// deployment of the topology-neutral decomposition. Along z it is the 1-D
// row-band cluster (a chain of ranks exchanging one halo strip per side
// through the same Transport seam, wired as a 1-by-nRanks grid), and it
// runs on the same shell as Cluster: Step, Run and RunRecover apply the
// injection plan configured in Options, Stats merges the per-rank
// counters, Close stops the rank goroutines. What is its own is the slab
// geometry and the Grid3D gather.
type Cluster3D[T num.Float] struct {
	shell[T]
	nx, ny, nz int
	slabs      []*rank3d[T]
}

// NewCluster3D decomposes init into nRanks z-layer slabs wired through the
// transport. Remainder layers are distributed one per rank from the bottom,
// so slab depths differ by at most one layer. Every slab must be strictly
// thicker than the stencil's z-radius; a larger nRanks returns an error.
// Slabs exchange every iteration and all run in this process: HaloDepth
// above 1 and LocalRanks are rejected.
func NewCluster3D[T num.Float](op *stencil.Op3D[T], init *grid.Grid3D[T], nRanks int, opt Options[T]) (*Cluster3D[T], error) {
	nx, ny, nz := init.Nx(), init.Ny(), init.Nz()
	if err := op.Validate(nx, ny, nz); err != nil {
		return nil, err
	}
	// The z chain reuses the band geometry: a 1-by-nRanks rank grid whose
	// "rows" are layer slabs. Decomp.Validate supplies the thin-slab
	// invariant (slabs strictly thicker than the z-radius, as every chunk
	// must be); the error is re-phrased in layer terms, a client's mistake
	// like a thin tile.
	d := Decomp{Nx: 1, Ny: nz, RanksX: 1, RanksY: nRanks}
	h := op.St.RadiusZ()
	if d.RanksY < 1 {
		return nil, errs.Tagf([]error{errs.ErrInvalidSpec}, "dist: invalid rank count %d", nRanks)
	}
	if err := d.Validate(0, h); err != nil {
		return nil, errs.Tagf([]error{ErrThinTile, errs.ErrInvalidSpec}, "dist: %d ranks over %d layers leaves slabs of %d layer(s), need more than the stencil z-radius %d (at most %d rank(s) fit)",
			nRanks, nz, nz/nRanks, h, maxParts(nz, h))
	}
	if opt.LocalRanks != nil {
		return nil, fmt.Errorf("dist: LocalRanks (multi-process hosting) supports 2-D grid clusters only; the 3-D layer cluster runs all slabs in-process")
	}
	if opt.HaloDepth > 1 {
		return nil, fmt.Errorf("dist: HaloDepth %d (depth-k ghost zones) supports 2-D grid clusters only; the 3-D layer cluster exchanges every iteration", opt.HaloDepth)
	}
	opt = opt.withDefaults()

	c := &Cluster3D[T]{nx: nx, ny: ny, nz: nz}
	tr := opt.NewTransport(1, nRanks, op.BC == grid.Periodic)
	for i := 0; i < nRanks; i++ {
		t := d.TileOf(i) // Y axis carries the layer range
		r, err := newRank3D(op, init, i, t.Y0, t.Y1, opt)
		if err != nil {
			return nil, err
		}
		r.tr, r.tel = tr, opt.Telemetry.Recorder(i)
		r.stats.Topology = fmt.Sprintf("layers %d", nRanks)
		c.slabs = append(c.slabs, r)
		c.hosted = append(c.hosted, hostedRank[T]{id: i, eng: r, tel: r.tel})
	}
	// Injections outside the domain are dropped; the rest land on the
	// owning slab's layer of its ghost-extended buffer.
	c.start(d, 1, tr, opt, func(inj fault.Injection) (int, fault.Injection, bool) {
		if inj.X < 0 || inj.X >= nx || inj.Y < 0 || inj.Y >= ny || inj.Z < 0 || inj.Z >= nz {
			return 0, inj, false
		}
		id := d.OwnerOf(0, inj.Z)
		inj.Z += h - d.TileOf(id).Y0
		return id, inj, true
	})
	return c, nil
}

// Gather reassembles the global domain from the ranks' current slab states.
// Call it between Run calls, never concurrently with one.
func (c *Cluster3D[T]) Gather() *grid.Grid3D[T] {
	g := grid.New3D[T](c.nx, c.ny, c.nz)
	plane := c.nx * c.ny
	for _, r := range c.slabs {
		copy(g.Data()[r.z0*plane:r.z1*plane], r.buf.Read.Data()[r.h*plane:]) // ghost layers excluded
	}
	return g
}

// Grid3D gathers and returns the global domain state; an alias for Gather
// that completes the unified protector contract. Each call reassembles the
// domain from the rank slabs, so hoist it out of hot loops.
func (c *Cluster3D[T]) Grid3D() *grid.Grid3D[T] { return c.Gather() }

// Grid returns nil: Cluster3D decomposes 3-D domains.
func (c *Cluster3D[T]) Grid() *grid.Grid[T] { return nil }

// rank3d is one rank of the 3-D layer-decomposed cluster: the slab of full
// nx-by-ny z-layers [z0, z1) of the global domain, what the tile rank is
// along z — a frame, the slab between h ghost layers below and above it, plus
// a core.Chunk inset by them, which sweeps, verifies and repairs the slab
// (the ghost layers' checksums are plain sums of what the rank put there, so
// no checksum is ever communicated). The rank adds what is distributed:
// refilling those ghost layers every iteration, from its z-neighbours or from
// the global boundary condition. All of a rank's state is touched only by its
// own goroutine; neighbour layers arrive as copies through the transport.
type rank3d[T num.Float] struct {
	id     int
	z0, z1 int // global layers owned, [z0, z1)
	h      int // ghost layers per side = stencil z-radius

	buf  *grid.Buffer3D[T] // the frame: nx by ny by z1-z0+2h
	ch   *core.Chunk[T]    // the slab, layers [h, h+z1-z0) of the frame
	pool *stencil.Pool

	tr       Transport[T]
	bc       grid.Boundary // of the global domain
	bcValue  T
	globalNz int

	stats Stats               // ABFT and halo counters
	tel   *telemetry.Recorder // nil when telemetry is disabled
}

// newRank3D builds rank id over global layers [z0, z1), copying them and the
// operator's constant field out of init and op into the frame between empty
// ghost layers.
func newRank3D[T num.Float](op *stencil.Op3D[T], init *grid.Grid3D[T], id, z0, z1 int, opt Options[T]) (*rank3d[T], error) {
	nx, ny, h := init.Nx(), init.Ny(), op.St.RadiusZ()
	plane, fnz := nx*ny, z1-z0+2*h
	fop := &stencil.Op3D[T]{St: op.St, BC: op.BC, BCValue: op.BCValue}
	if op.C != nil {
		fop.C = grid.New3D[T](nx, ny, fnz)
		copy(fop.C.Data()[h*plane:], op.C.Data()[z0*plane:z1*plane])
	}
	r := &rank3d[T]{id: id, z0: z0, z1: z1, h: h, buf: grid.NewBuffer3D[T](nx, ny, fnz), pool: opt.Pool,
		bc: op.BC, bcValue: op.BCValue, globalNz: init.Nz()}
	copy(r.buf.Read.Data()[h*plane:], init.Data()[z0*plane:z1*plane])
	var err error
	r.ch, err = core.NewChunk(fop, r.buf, 0, 0, h, nx, ny, fnz-h, op.St.RadiusY(), core.Options[T]{
		Detector: opt.Detector, PairPolicy: opt.PairPolicy, DropBoundaryTerms: opt.DropBoundaryTerms,
	})
	if err != nil {
		return nil, err
	}
	return r, nil
}

// advance runs one iteration: the ghost layers refreshed with iteration-t
// data, then the chunk's step — the same Verify → Repair → Swap tail the tile
// rank ends in.
func (r *rank3d[T]) advance(_ int, sites []stencil.Site[T]) {
	r.exchangeHalos()
	r.ch.Step(r.pool, sites, &r.stats, r.tel)
	r.buf.Swap()
	r.stats.Iterations++
}

func (r *rank3d[T]) counters() Stats       { return r.stats }
func (r *rank3d[T]) chunk() *core.Chunk[T] { return r.ch }

// A slab posts its layers inside advance: nothing is out between iterations.
func (r *rank3d[T]) prePost()    {}
func (r *rank3d[T]) dropPosted() {}

// exchangeHalos refreshes the ghost layers with iteration-t data: boundary
// layers are posted to both z-neighbours first, then the inbound layers are
// copied in. Layers are contiguous in storage, so no packing is needed —
// the z chain is the 1-D band exchange verbatim. Sides without a neighbour
// (the bottom and top slabs under non-periodic boundaries) synthesise
// their ghost layers from the global boundary condition instead.
func (r *rank3d[T]) exchangeHalos() {
	if r.h == 0 {
		return
	}
	g := r.buf.Read
	plane, data := g.Nx()*g.Ny(), g.Data()
	lo, hi := r.h*plane, (g.Nz()-r.h)*plane // the slab's own cells
	ghost := r.h * plane
	hasUp, hasDn := r.tr.Neighbor(r.id, Up), r.tr.Neighbor(r.id, Down)
	if hasUp {
		r.send(Up, data[lo:lo+ghost])
	}
	if hasDn {
		r.send(Down, data[hi-ghost:hi])
	}
	r.fill(Up, hasUp, data[:lo])
	r.fill(Down, hasDn, data[hi:])
	r.stats.HaloExchanges++
}

func (r *rank3d[T]) send(d Dir, layers []T) {
	t0 := r.tel.Begin()
	r.tr.Send(r.id, d, layers)
	r.tel.End(telemetry.PhaseSend, t0)
	r.stats.HaloByDir[d]++
}

// fill refreshes the ghost layers on side d from the neighbour there, or
// from the boundary condition when there is none.
func (r *rank3d[T]) fill(d Dir, has bool, ghost []T) {
	t0 := r.tel.Begin()
	if has {
		in := r.tr.Recv(r.id, d)
		r.tel.End(telemetry.PhaseRecvWait, t0)
		t0 = r.tel.Begin()
		copy(ghost, in)
	} else {
		r.fillEdgeHalo(d == Up)
	}
	r.tel.End(telemetry.PhaseUnpack, t0)
}

// fillEdgeHalo synthesises the ghost layers beyond the global domain's z
// edge by applying the global boundary condition layer-wise. Clamp and
// Mirror resolve to layers this rank owns (a slab is strictly thicker than
// the radius); Constant and Zero substitute the fixed ghost value.
func (r *rank3d[T]) fillEdgeHalo(low bool) {
	ext := r.buf.Read
	for j := 0; j < r.h; j++ {
		gz, layer := r.z1+j, ext.Nz()-r.h+j // global ghost layer and its index in ext
		if low {
			gz, layer = r.z0-r.h+j, j
		}
		dst := ext.Layer(layer)
		rz, ok := r.bc.ResolveIndex(gz, r.globalNz)
		if !ok {
			v := T(0)
			if r.bc == grid.Constant {
				v = r.bcValue
			}
			dst.Fill(v)
			continue
		}
		dst.CopyFrom(ext.Layer(r.h + rz - r.z0))
	}
}
