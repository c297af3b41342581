package checksum

import (
	"math"
	"math/rand"
	"testing"

	"stencilabft/internal/grid"
	"stencilabft/internal/num"
)

// corruptAndDetect builds a clean grid, corrupts one cell, and returns the
// pieces the corrector needs: the corrupted grid, the direct (corrupted)
// checksums and the interpolated (clean) checksums.
func corruptAndDetect(rng *rand.Rand, nx, ny int, delta float64) (*grid.Grid[float64], Location, *Vectors[float64], []float64, []float64) {
	g := grid.New[float64](nx, ny)
	g.FillFunc(func(x, y int) float64 { return 10 + rng.Float64() })
	clean := NewVectors[float64](nx, ny)
	clean.Compute(g)

	loc := Location{X: rng.Intn(nx), Y: rng.Intn(ny)}
	g.Set(loc.X, loc.Y, g.At(loc.X, loc.Y)+delta)
	direct := NewVectors[float64](nx, ny)
	direct.Compute(g)
	return g, loc, direct, clean.A, clean.B
}

func TestCorrectRestoresValue(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		nx, ny := 4+rng.Intn(12), 4+rng.Intn(12)
		delta := 100 * (rng.Float64() - 0.5)
		g, loc, direct, interpA, interpB := corruptAndDetect(rng, nx, ny, delta)
		want := g.At(loc.X, loc.Y) - delta

		var c Corrector[float64]
		old, fixed := c.CorrectRect(g, 0, 0, nx, ny, loc, direct.A, direct.B, interpA, interpB)
		if old != want+delta {
			t.Fatalf("old value reported wrong")
		}
		if num.Abs(fixed-want) > 1e-9 {
			t.Fatalf("trial %d: corrected %.12g want %.12g", trial, fixed, want)
		}
		// Checksums must be patched consistently with the repaired grid.
		fresh := NewVectors[float64](nx, ny)
		fresh.Compute(g)
		if num.RelErr(direct.A[loc.X], fresh.A[loc.X], 1e-9) > 1e-12 ||
			num.RelErr(direct.B[loc.Y], fresh.B[loc.Y], 1e-9) > 1e-12 {
			t.Fatalf("trial %d: checksums not patched", trial)
		}
	}
}

func TestCorrectStableSurvivesOverflow(t *testing.T) {
	// Corrupt a cell to +Inf: the paper's literal Eq. 10 cannot recover
	// (checksum overflow, Section 5.3); the stable evaluation can.
	rng := rand.New(rand.NewSource(2))
	nx, ny := 8, 8
	g := grid.New[float64](nx, ny)
	g.FillFunc(func(x, y int) float64 { return 5 + rng.Float64() })
	clean := NewVectors[float64](nx, ny)
	clean.Compute(g)
	loc := Location{X: 3, Y: 4}
	want := g.At(loc.X, loc.Y)
	g.Set(loc.X, loc.Y, math.Inf(1))
	direct := NewVectors[float64](nx, ny)
	direct.Compute(g)

	c := Corrector[float64]{}
	_, fixed := c.CorrectRect(g, 0, 0, nx, ny, loc, direct.A, direct.B, clean.A, clean.B)
	if num.Abs(fixed-want) > 1e-9 {
		t.Fatalf("stable correction of Inf: got %g want %g", fixed, want)
	}
	if !num.IsFinite(direct.A[loc.X]) || !num.IsFinite(direct.B[loc.Y]) {
		t.Fatal("checksums not repaired after overflow")
	}
}

func TestCorrectPaperExactLosesPrecisionOnHugeCorruption(t *testing.T) {
	// Documents the failure mode the paper reports: with a 1e20-scale
	// corrupted value, a - u cancels catastrophically.
	rng := rand.New(rand.NewSource(3))
	nx, ny := 8, 8
	g := grid.New[float64](nx, ny)
	g.FillFunc(func(x, y int) float64 { return 5 + rng.Float64() })
	clean := NewVectors[float64](nx, ny)
	clean.Compute(g)
	loc := Location{X: 2, Y: 6}
	want := g.At(loc.X, loc.Y)
	g.Set(loc.X, loc.Y, 1e20)

	run := func(paperExact bool) float64 {
		gg := g.Clone()
		direct := NewVectors[float64](nx, ny)
		direct.Compute(gg)
		c := Corrector[float64]{PaperExact: paperExact}
		_, fixed := c.CorrectRect(gg, 0, 0, nx, ny, loc, direct.A, direct.B, clean.A, clean.B)
		return num.Abs(fixed - want)
	}
	stableErr := run(false)
	paperErr := run(true)
	if stableErr > 1e-9 {
		t.Fatalf("stable correction residual %g", stableErr)
	}
	if paperErr < 1 {
		t.Fatalf("expected the literal Eq. 10 to lose precision, residual %g", paperErr)
	}
}

func TestPairSingle(t *testing.T) {
	am := []Mismatch[float64]{{Index: 3, Residual: -5}}
	bm := []Mismatch[float64]{{Index: 7, Residual: -5}}
	locs := Pair(am, bm, PairByResidual)
	if len(locs) != 1 || locs[0] != (Location{X: 3, Y: 7}) {
		t.Fatalf("locs = %v", locs)
	}
}

func TestPairEmpty(t *testing.T) {
	if Pair[float64](nil, nil, PairByResidual) != nil {
		t.Fatal("empty pair should be nil")
	}
	am := []Mismatch[float64]{{Index: 1}}
	if Pair(am, nil, PairByIndex) != nil {
		t.Fatal("one-sided pair should be nil")
	}
}

func TestPairResidualBeatsIndexOnCrossPattern(t *testing.T) {
	// Errors at (1, 9) with residual -5 and (8, 2) with residual -40:
	// sorted index order pairs (1,2) and (8,9) — wrong. Residual
	// matching pairs correctly.
	am := []Mismatch[float64]{{Index: 1, Residual: -5}, {Index: 8, Residual: -40}}
	bm := []Mismatch[float64]{{Index: 2, Residual: -40}, {Index: 9, Residual: -5}}

	byIdx := Pair(am, bm, PairByIndex)
	if byIdx[0] == (Location{X: 1, Y: 9}) {
		t.Fatal("index pairing unexpectedly correct; test arrangement broken")
	}
	byRes := Pair(am, bm, PairByResidual)
	want := map[Location]bool{{X: 1, Y: 9}: true, {X: 8, Y: 2}: true}
	if !want[byRes[0]] || !want[byRes[1]] || byRes[0] == byRes[1] {
		t.Fatalf("residual pairing wrong: %v", byRes)
	}
}

func TestPairUnevenListsTruncate(t *testing.T) {
	am := []Mismatch[float64]{{Index: 1, Residual: -5}}
	bm := []Mismatch[float64]{{Index: 2, Residual: -5}, {Index: 3, Residual: -7}}
	locs := Pair(am, bm, PairByResidual)
	if len(locs) != 1 || locs[0] != (Location{X: 1, Y: 2}) {
		t.Fatalf("locs = %v", locs)
	}
}

func TestCorrectAllMultipleErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	nx, ny := 12, 10
	g := grid.New[float64](nx, ny)
	g.FillFunc(func(x, y int) float64 { return 20 + rng.Float64() })
	clean := NewVectors[float64](nx, ny)
	clean.Compute(g)
	wantRepaired := g.Clone()

	// Two corruptions in distinct rows and columns.
	g.Set(2, 7, g.At(2, 7)+50)
	g.Set(9, 1, g.At(9, 1)-30)
	direct := NewVectors[float64](nx, ny)
	direct.Compute(g)

	det := Detector[float64]{Epsilon: 1e-9, AbsFloor: 1}
	am := det.Compare(direct.A, clean.A)
	bm := det.Compare(direct.B, clean.B)
	if len(am) != 2 || len(bm) != 2 {
		t.Fatalf("mismatch counts %d/%d", len(am), len(bm))
	}
	var c Corrector[float64]
	locs := c.CorrectAll(g, am, bm, PairByResidual, direct, clean.A, clean.B)
	if len(locs) != 2 {
		t.Fatalf("corrected %d locations", len(locs))
	}
	if d := g.MaxAbsDiff(wantRepaired); d > 1e-9 {
		t.Fatalf("repair residual %g", d)
	}
}

func TestVectorsComputeKahanMatchesPlainOnSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := grid.New[float64](6, 5)
	g.FillFunc(func(x, y int) float64 { return rng.Float64() })
	p := NewVectors[float64](6, 5)
	p.Compute(g)
	k := NewVectors[float64](6, 5)
	k.ComputeKahan(g)
	for i := range p.A {
		if num.Abs(p.A[i]-k.A[i]) > 1e-12 {
			t.Fatal("Kahan A diverges on small input")
		}
	}
	for i := range p.B {
		if num.Abs(p.B[i]-k.B[i]) > 1e-12 {
			t.Fatal("Kahan B diverges on small input")
		}
	}
}

// TestRepairTails covers the shared end of every owner's detection slow
// path, over a whole grid (a layer of a 3-D domain) and over the same cells
// as a rectangle of a larger frame (a chunk): a corrupted cell is located,
// repaired and counted, to the same bits either way and under both
// evaluations of Equation (10); a corrupted checksum entry repairs nothing,
// is reported as 0 and leaves the column checksums refreshed from the
// trusted data.
func TestRepairTails(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	det := NewDetector[float64]()
	for trial := 0; trial < 20; trial++ {
		nx, ny := 6+rng.Intn(8), 6+rng.Intn(8)
		c := Corrector[float64]{PaperExact: trial%2 == 1}
		g, loc, direct, interpA, interpB := corruptAndDetect(rng, nx, ny, 50+100*rng.Float64())
		const x0, y0 = 3, 2
		frame := grid.New[float64](nx+7, ny+5)
		frame.Fill(1e3)
		for y := 0; y < ny; y++ {
			copy(frame.Row(y0 + y)[x0:x0+nx], g.Row(y))
		}
		d2 := &Vectors[float64]{A: append([]float64(nil), direct.A...), B: append([]float64(nil), direct.B...)}

		if n := c.RepairRect(det, PairByResidual, g, 0, 0, nx, ny, direct.A, direct.B, interpA, interpB); n != 1 {
			t.Fatalf("trial %d: whole grid repaired %d points, want 1", trial, n)
		}
		if n := c.RepairRect(det, PairByResidual, frame, x0, y0, x0+nx, y0+ny, d2.A, d2.B, interpA, interpB); n != 1 {
			t.Fatalf("trial %d: rectangle repaired %d points, want 1", trial, n)
		}
		if got, want := frame.At(x0+loc.X, y0+loc.Y), g.At(loc.X, loc.Y); math.Float64bits(got) != math.Float64bits(want) || num.Abs(direct.B[loc.Y]-interpB[loc.Y]) > 1e-9 {
			t.Fatalf("trial %d: rectangle repaired to %v, the whole grid to %v (b=%v, clean b=%v)", trial, got, want, direct.B[loc.Y], interpB[loc.Y])
		}
		if math.Float64bits(d2.A[loc.X]) != math.Float64bits(direct.A[loc.X]) || math.Float64bits(d2.B[loc.Y]) != math.Float64bits(direct.B[loc.Y]) {
			t.Fatalf("trial %d: the two forms patched the checksums differently", trial)
		}

		// Now the data is clean again; corrupt one checksum entry instead.
		direct.B[loc.Y] += 1e6
		if n := c.RepairRect(det, PairByResidual, g, 0, 0, nx, ny, direct.A, direct.B, interpA, interpB); n != 0 {
			t.Fatalf("trial %d: a corrupted checksum entry repaired %d points", trial, n)
		}
		if num.Abs(direct.B[loc.Y]-interpB[loc.Y]) > 1e-9 {
			t.Fatalf("trial %d: column checksum %v not refreshed to %v", trial, direct.B[loc.Y], interpB[loc.Y])
		}
	}
}
