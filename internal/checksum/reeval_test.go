package checksum

import (
	"math/rand"
	"testing"

	"stencilabft/internal/grid"
	"stencilabft/internal/num"
)

// rowRepairCase is a clean grid, a corrupted copy of it and the clean
// column checksums; resweep restores a row of the copy from the clean grid,
// as a sweep driver re-evaluates a row from the intact previous iteration.
type rowRepairCase struct {
	clean, g        *grid.Grid[float64]
	direct, interpB []float64
	saved           []float64
}

func newRowRepairCase(rng *rand.Rand, nx, ny int) *rowRepairCase {
	c := &rowRepairCase{clean: grid.New[float64](nx, ny), direct: make([]float64, ny), interpB: make([]float64, ny), saved: make([]float64, nx)}
	c.clean.FillFunc(func(x, y int) float64 { return 10 + rng.Float64() })
	c.g = c.clean.Clone()
	for y := 0; y < ny; y++ {
		c.interpB[y] = num.Sum(c.clean.Row(y))
	}
	return c
}

func (c *rowRepairCase) corrupt(x, y int, v float64) { c.g.Set(x, y, v) }

func (c *rowRepairCase) repair(src *grid.Grid[float64]) (cells int, ok bool) {
	for y := range c.direct {
		c.direct[y] = num.Sum(c.g.Row(y))
	}
	return RepairRows(NewDetector[float64](), c.direct, c.interpB, c.saved, c.g.Row, func(y int) float64 {
		copy(c.g.Row(y), src.Row(y))
		return num.Sum(c.g.Row(y))
	})
}

func TestRepairRows(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const nx, ny = 9, 7

	// Corrupted cells, two of them sharing a row and one of them NaN: every
	// changed cell is counted and the grid is the clean grid again.
	c := newRowRepairCase(rng, nx, ny)
	c.corrupt(2, 3, 1e6)
	c.corrupt(7, 3, -4)
	c.corrupt(0, 5, num.FlipBit(1.5, 62)) // NaN
	cells, ok := c.repair(c.clean)
	if !ok || cells != 3 {
		t.Fatalf("repaired %d cells, ok=%v; want 3, true", cells, ok)
	}
	for i, v := range c.g.Data() {
		if !num.SameBits(v, c.clean.Data()[i]) {
			t.Fatalf("cell %d is %v after the repair, clean %v", i, v, c.clean.Data()[i])
		}
	}
	for y, b := range c.direct {
		if b != c.interpB[y] {
			t.Fatalf("entry %d is %v after the repair, clean %v", y, b, c.interpB[y])
		}
	}

	// A corrupted checksum entry: no cell changes, the entry is refreshed.
	c = newRowRepairCase(rng, nx, ny)
	for y := range c.direct {
		c.direct[y] = c.interpB[y]
	}
	c.direct[4] += 1e3
	cells, ok = RepairRows(NewDetector[float64](), c.direct, c.interpB, c.saved, c.g.Row, func(y int) float64 { return num.Sum(c.g.Row(y)) })
	if !ok || cells != 0 || c.direct[4] != c.interpB[4] {
		t.Fatalf("corrupted entry: %d cells, ok=%v, entry %v (clean %v)", cells, ok, c.direct[4], c.interpB[4])
	}

	// A source that is itself corrupted: re-evaluation reproduces the bad
	// row of 1 and, with a further cell changed, a still-wrong row of 5; both
	// are put back as they were and reported, while row 3 is repaired.
	c = newRowRepairCase(rng, nx, ny)
	src := c.clean.Clone()
	src.Set(4, 1, 1e4)
	src.Set(6, 5, -1e4)
	c.corrupt(4, 1, 1e4)
	c.corrupt(1, 5, 77)
	c.corrupt(8, 3, 0)
	before := c.g.Clone()
	cells, ok = c.repair(src)
	if ok || cells != 1 {
		t.Fatalf("corrupted source: %d cells, ok=%v; want 1, false", cells, ok)
	}
	for _, y := range []int{1, 5} {
		for x, v := range c.g.Row(y) {
			if !num.SameBits(v, before.At(x, y)) {
				t.Fatalf("row %d was not put back: (%d,%d) = %v, was %v", y, x, y, v, before.At(x, y))
			}
		}
		if c.direct[y] != num.Sum(before.Row(y)) {
			t.Fatalf("entry %d was not put back", y)
		}
	}
	if c.g.At(8, 3) != c.clean.At(8, 3) {
		t.Fatal("row 3 was not repaired beside the rows that could not be")
	}
}

// TestRepairRectSameRowLocatesOne pins where the paper's intersection stops:
// two errors sharing a row give one mismatching row against two mismatching
// columns, the shorter list bounds what is located, and one error survives
// the repair.
func TestRepairRectSameRowLocatesOne(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	const nx, ny = 10, 8
	g, loc, _, interpA, interpB := corruptAndDetect(rng, nx, ny, 50)
	x2 := (loc.X + 3) % nx
	clean2 := g.At(x2, loc.Y)
	g.Set(x2, loc.Y, clean2+80)
	direct := NewVectors[float64](nx, ny)
	direct.Compute(g)
	if n := (Corrector[float64]{}).RepairRect(NewDetector[float64](), PairByResidual, g, 0, 0, nx, ny, direct.A, direct.B, interpA, interpB); n != 1 {
		t.Fatalf("located %d points of a same-row pair, want 1", n)
	}
	if g.At(x2, loc.Y) == clean2 {
		t.Fatal("the second same-row error was repaired by a single intersection")
	}
}
