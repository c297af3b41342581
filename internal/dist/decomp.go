package dist

import (
	"fmt"

	"stencilabft/internal/errs"
)

// ErrThinTile classifies a decomposition whose tiles are too thin for the
// stencil's halo: errors.Is(err, ErrThinTile) is true for every
// Validate/ValidateDepth rejection on tile-size grounds, while the error
// text keeps naming the offending axis and the largest grid that would fit.
var ErrThinTile = errs.ErrThinTile

// Decomp is the topology-neutral decomposition of an Nx-by-Ny domain over a
// RanksX-by-RanksY Cartesian rank grid — the geometry every deployment of
// the cluster shares. Rank ids are row-major over the grid
// (id = cy*RanksX + cx), columns split Nx and rows split Ny with remainders
// distributed one per rank from the low end, so tile edges differ by at
// most one point in each axis. The historical 1-D row-band decomposition is
// the RanksX == 1 special case; a 3-D z-layer slab cluster reuses the same
// geometry with (RanksX, RanksY) = (1, nSlabs) over (1, Nz).
//
// Decomp is pure geometry: it answers who owns what and who neighbours
// whom, and knows nothing about transports, halos or checksums — that is
// what makes the deployments above it nearly free.
type Decomp struct {
	Nx, Ny         int // global domain shape (points)
	RanksX, RanksY int // rank grid shape (columns × rows)
}

// Tile is the sub-rectangle [X0, X1) × [Y0, Y1) of the global domain owned
// by one rank.
type Tile struct {
	X0, Y0, X1, Y1 int
}

// Nx returns the tile's width in points.
func (t Tile) Nx() int { return t.X1 - t.X0 }

// Ny returns the tile's height in points.
func (t Tile) Ny() int { return t.Y1 - t.Y0 }

// Contains reports whether global point (x, y) lies inside the tile.
func (t Tile) Contains(x, y int) bool {
	return x >= t.X0 && x < t.X1 && y >= t.Y0 && y < t.Y1
}

// String renders the tile's extent for diagnostics.
func (t Tile) String() string {
	return fmt.Sprintf("[%d,%d)x[%d,%d)", t.X0, t.X1, t.Y0, t.Y1)
}

// NumRanks returns the number of ranks in the grid.
func (d Decomp) NumRanks() int { return d.RanksX * d.RanksY }

// Coords returns rank id's Cartesian grid coordinates (cx, cy).
func (d Decomp) Coords(id int) (cx, cy int) { return id % d.RanksX, id / d.RanksX }

// RankAt returns the rank id at grid coordinates (cx, cy).
func (d Decomp) RankAt(cx, cy int) int { return cy*d.RanksX + cx }

// String renders the rank-grid shape the way the CLI flag writes it:
// rows × columns.
func (d Decomp) String() string { return fmt.Sprintf("%dx%d", d.RanksY, d.RanksX) }

// chunkStart returns where part i of [0, n) split into parts chunks begins;
// the remainder is distributed one point per part from the low end.
func chunkStart(n, parts, i int) int {
	base, rem := n/parts, n%parts
	return i*base + min(i, rem)
}

// TileOf returns the sub-rectangle of the domain owned by rank id.
func (d Decomp) TileOf(id int) Tile {
	cx, cy := d.Coords(id)
	return Tile{
		X0: chunkStart(d.Nx, d.RanksX, cx),
		X1: chunkStart(d.Nx, d.RanksX, cx+1),
		Y0: chunkStart(d.Ny, d.RanksY, cy),
		Y1: chunkStart(d.Ny, d.RanksY, cy+1),
	}
}

// OwnerOf returns the rank owning global point (x, y). The point must lie
// inside the domain.
func (d Decomp) OwnerOf(x, y int) int {
	return d.RankAt(chunkIndex(d.Nx, d.RanksX, x), chunkIndex(d.Ny, d.RanksY, y))
}

// chunkIndex inverts chunkStart: the part of [0, n)-split-into-parts that
// point p falls in.
func chunkIndex(n, parts, p int) int {
	base, rem := n/parts, n%parts
	// The first rem parts are base+1 wide.
	wide := rem * (base + 1)
	if p < wide {
		return p / (base + 1)
	}
	return rem + (p-wide)/base
}

// Neighbor returns the rank adjacent to id in direction d, wrapping
// torus-style when wrap is true; ok is false at a domain edge without wrap.
func (d Decomp) Neighbor(id int, dir Dir, wrap bool) (nb int, ok bool) {
	cx, cy := d.Coords(id)
	switch dir {
	case Up:
		cy--
	case Down:
		cy++
	case Left:
		cx--
	case Right:
		cx++
	default:
		panic(fmt.Sprintf("dist: invalid direction %d", int(dir)))
	}
	if wrap {
		cx = (cx + d.RanksX) % d.RanksX
		cy = (cy + d.RanksY) % d.RanksY
	} else if cx < 0 || cx >= d.RanksX || cy < 0 || cy >= d.RanksY {
		return 0, false
	}
	return d.RankAt(cx, cy), true
}

// diameter returns the longest shortest path between two ranks of the grid
// graph — the number of neighbour-token rounds a distributed barrier needs
// before every rank provably knows every other rank has arrived. Wrapped
// axes halve the distance (the torus shortcut); a single rank has diameter
// zero.
func (d Decomp) diameter(wrap bool) int {
	if wrap {
		return d.RanksX/2 + d.RanksY/2
	}
	return (d.RanksX - 1) + (d.RanksY - 1)
}

// Validate rejects degenerate rank grids and tiles too thin for a stencil
// of radius (rx, ry): the checksum interpolators (and Mirror/Clamp halo
// synthesis) need every tile strictly wider than rx and strictly taller
// than ry. The error is caller-actionable — it names the offending axis and
// the largest grid that would fit.
func (d Decomp) Validate(rx, ry int) error {
	return d.ValidateDepth(rx, ry, 1)
}

// ValidateDepth is Validate for depth-k ghost zones: a halo depth of k
// widens each halo to k·rx columns (k·ry rows), and every tile must be
// strictly wider (taller) than that so halo synthesis, packing and the
// depth-k checksum interpolators stay inside the owning tile. At depth 1 it
// is exactly Validate; at deeper k the error additionally names the largest
// depth the rank grid would support.
func (d Decomp) ValidateDepth(rx, ry, depth int) error {
	if d.RanksX < 1 || d.RanksY < 1 {
		return fmt.Errorf("dist: invalid rank grid %dx%d (rows x cols); both factors must be >= 1", d.RanksY, d.RanksX)
	}
	if depth < 1 {
		return fmt.Errorf("dist: invalid halo depth %d; must be >= 1", depth)
	}
	thin := []error{ErrThinTile}
	hx, hy := depth*rx, depth*ry
	if minW := d.Nx / d.RanksX; minW <= hx {
		if depth == 1 {
			return errs.Tagf(thin, "dist: rank grid %s over a %dx%d domain leaves tiles only %d column(s) wide, need more than the stencil x-radius %d (at most %d rank column(s) fit)",
				d, d.Nx, d.Ny, minW, rx, maxParts(d.Nx, rx))
		}
		return errs.Tagf(thin, "dist: rank grid %s over a %dx%d domain leaves tiles only %d column(s) wide, need more than the depth-%d halo width %d (stencil x-radius %d; at most %d rank column(s) fit at this depth, and this grid supports halo depth at most %d)",
			d, d.Nx, d.Ny, minW, depth, hx, rx, maxParts(d.Nx, hx), maxDepth(minW, rx))
	}
	if minH := d.Ny / d.RanksY; minH <= hy {
		if depth == 1 {
			return errs.Tagf(thin, "dist: rank grid %s over a %dx%d domain leaves tiles only %d row(s) tall, need more than the stencil y-radius %d (at most %d rank row(s) fit)",
				d, d.Nx, d.Ny, minH, ry, maxParts(d.Ny, ry))
		}
		return errs.Tagf(thin, "dist: rank grid %s over a %dx%d domain leaves tiles only %d row(s) tall, need more than the depth-%d halo height %d (stencil y-radius %d; at most %d rank row(s) fit at this depth, and this grid supports halo depth at most %d)",
			d, d.Nx, d.Ny, minH, depth, hy, ry, maxParts(d.Ny, hy), maxDepth(minH, ry))
	}
	return nil
}

// maxDepth returns the largest halo depth a tile of minDim points supports
// for a stencil radius r (the tile must be strictly wider than depth·r).
func maxDepth(minDim, r int) int {
	if r <= 0 {
		return minDim
	}
	k := (minDim - 1) / r
	if k < 1 {
		k = 1
	}
	return k
}

// maxParts returns the largest number of parts n points can be split into
// with every part strictly larger than r points.
func maxParts(n, r int) int {
	p := n / (r + 1)
	if p < 1 {
		p = 1
	}
	return p
}
