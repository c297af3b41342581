package dist

import (
	"stencilabft/internal/core"
	"stencilabft/internal/grid"
	"stencilabft/internal/num"
	"stencilabft/internal/stencil"
	"stencilabft/internal/telemetry"
)

// rank is one simulated MPI rank: an arbitrary tile [x0,x1) × [y0,y1) of
// the global domain stored in a ghost-padded local double buffer (hx halo
// columns left and right, hy halo rows above and below, corners included),
// protected by the online ABFT scheme: the tile is a core.Chunk of the
// extended frame, and the rank is that chunk plus the halo exchange and the
// sweep (overlap.go). The historical row band is the full-width
// tile of a 1-D (RanksX == 1) rank grid — same code path. All of a rank's
// state is touched only by its own goroutine; neighbour data arrives as
// copies through channels.
type rank[T num.Float] struct {
	id   int
	tile Tile // global sub-rectangle owned

	nxLoc, nyLoc int // tile shape
	rx, ry       int // stencil radii
	depth        int // ghost-zone depth k: halos exchange once every k iterations
	hx, hy       int // halo widths = depth * stencil x/y radii

	// op sweeps the extended local grid. Every point of the tile rect is
	// interior to the extended frame (hx >= RadiusX, hy >= RadiusY), so
	// the sweep reads only materialised storage — real neighbour halos or
	// BC-synthesised ghosts — and never resolves a boundary itself. Its C
	// field, when present, is the tile's slice of the global constant
	// field padded to the extended shape.
	op  *stencil.Op2D[T]
	buf *grid.Buffer[T] // extended grids: (nxLoc+2hx) by (nyLoc+2hy)

	// ch is the tile as a chunk of the extended frame's one-layer stack: the
	// column checksums in the extended y frame (entries [0, hy) and
	// [hy+nyLoc, nyLoc+2hy) of ch.PrevB[0]/ch.NewB[0] belong to halo rows,
	// [hy, hy+nyLoc) to the tile), the interpolator, and the
	// verify-and-repair tail of every step, which re-evaluates a flagged row
	// through resweepFn (resweep, bound once).
	ch        *core.Chunk[T]
	resweepFn func(z, y int) T
	pool      *stencil.Pool

	// halo plumbing: the cluster's transport; a missing neighbour (domain
	// edge under non-periodic boundaries) is resolved from the global
	// boundary condition instead.
	tr                 Transport[T]
	globalBC           grid.Boundary
	globalNx, globalNy int

	// Neighbour presence, resolved once at construction so the
	// per-iteration schedule never re-asks the transport (bindTransport).
	hasL, hasR, hasU, hasD bool

	// sendL/sendR are the packed column strips posted Left/Right, double
	// buffered: the strip of exchange round g+2 is packed before the
	// receiver's barrier of round g+1, while it may still be reading strip
	// g+1 (the transport's payload-lifetime contract), so postX alternates
	// between the two and rewrites a buffer only two rounds later.
	sendL, sendR [2][]T
	sendSlot     int
	// posted reports that the x strips of the rank's next exchange iteration
	// are already out (prePost) — and, every rank deciding alike, that its
	// neighbours' are in its inbox — so that iteration must not post again.
	posted bool

	stats Stats
	// tel times the rank's phases; nil (telemetry disabled) makes every
	// Begin/End a nil-check no-op, keeping the step allocation-free and
	// clock-free.
	tel *telemetry.Recorder
}

// newRank builds rank id over the global tile t, copying the tile and its
// initial halo data out of init. opt.HaloDepth is the resolved depth, >= 1.
func newRank[T num.Float](op *stencil.Op2D[T], init *grid.Grid[T], id int, t Tile, hx, hy int, opt Options[T]) (*rank[T], error) {
	nxLoc, nyLoc := t.Nx(), t.Ny()
	extNx, extNy := nxLoc+2*hx, nyLoc+2*hy
	sop := &stencil.Op2D[T]{St: op.St, BC: op.BC, BCValue: op.BCValue}
	if op.C != nil {
		cExt := grid.New[T](extNx, extNy)
		for y := 0; y < nyLoc; y++ {
			copy(cExt.Row(hy + y)[hx:hx+nxLoc], op.C.Row(t.Y0 + y)[t.X0:t.X1])
		}
		sop.C = cExt
	}

	r := &rank[T]{
		id: id, tile: t, nxLoc: nxLoc, nyLoc: nyLoc, hx: hx, hy: hy,
		rx: op.St.RadiusX(), ry: op.St.RadiusY(), depth: opt.HaloDepth,
		op:       sop,
		buf:      grid.NewBuffer[T](extNx, extNy),
		pool:     opt.Pool,
		globalBC: op.BC,
		globalNx: init.Nx(),
		globalNy: init.Ny(),
		sendL:    [2][]T{make([]T, hx*nyLoc), make([]T, hx*nyLoc)},
		sendR:    [2][]T{make([]T, hx*nyLoc), make([]T, hx*nyLoc)},
	}
	for y := 0; y < nyLoc; y++ {
		copy(r.buf.Read.Row(hy + y)[hx:hx+nxLoc], init.Row(t.Y0 + y)[t.X0:t.X1])
	}
	// The chunk takes the tile's initial checksums from the frame, the tile as
	// its one-layer stack; tile data and checksums are assumed correct
	// (Theorem 2).
	var err error
	r.ch, err = core.NewChunk(sop.Stack(), r.buf.Stack(), hx, hy, 0, hx+nxLoc, hy+nyLoc, 1, hy, core.Options[T]{
		Detector: opt.Detector, PairPolicy: opt.PairPolicy, DropBoundaryTerms: opt.DropBoundaryTerms,
	})
	if err != nil {
		return nil, err
	}
	r.resweepFn = r.resweep
	return r, nil
}

func (r *rank[T]) counters() Stats { return r.stats }

// chunk is the tile's chunk: its PackState snapshot is the tile's points and
// verified column checksums. Halo strips are excluded — a restored rank
// refreshes them at its first exchange (shell.RestoreState has discarded any
// strip already posted) — and so is the row checksum scratch, which the
// detection slow path recomputes on demand.
func (r *rank[T]) chunk() *core.Chunk[T] { return r.ch }

// loX/hiX and loY/hiY bound the tile in the extended grid.
func (r *rank[T]) loX() int { return r.hx }
func (r *rank[T]) hiX() int { return r.hx + r.nxLoc }
func (r *rank[T]) loY() int { return r.hy }
func (r *rank[T]) hiY() int { return r.hy + r.nyLoc }
