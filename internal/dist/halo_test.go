package dist

import (
	"sync"
	"testing"

	"stencilabft/internal/grid"
	"stencilabft/internal/stencil"
)

// These tests pin what one production exchange iteration (rank.advance,
// driven through Cluster.Run) leaves in a rank's halo strips. advance swaps
// the buffers after its sweep, so the frame the exchange filled — the
// iteration's source grid, tile data untouched — is buf.Write afterwards.

// exchangeOnce builds a cluster over init, runs one iteration and closes it
// with the test.
func exchangeOnce(t *testing.T, op *stencil.Op2D[float64], init *grid.Grid[float64], ranksX, ranksY int) *Cluster[float64] {
	t.Helper()
	c, err := NewClusterGrid(op, init, ranksX, ranksY, strictOpts())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	c.Run(1)
	return c
}

// checkExtendedFrame requires every extended-frame cell of every rank —
// halo columns, halo rows and the corner blocks threaded through the
// full-width row messages — to hold the value the global domain has at that
// coordinate, the domain border resolved by the boundary condition.
func checkExtendedFrame(t *testing.T, c *Cluster[float64], init *grid.Grid[float64], bc grid.Boundary) {
	t.Helper()
	bg := grid.BoundedGrid[float64]{G: init, Cond: bc}
	for i, r := range c.ranks {
		for ey := 0; ey < r.nyLoc+2*r.hy; ey++ {
			for ex := 0; ex < r.nxLoc+2*r.hx; ex++ {
				gx, gy := r.tile.X0-r.hx+ex, r.tile.Y0-r.hy+ey
				if got, want := r.buf.Write.At(ex, ey), bg.At(gx, gy); got != want {
					t.Fatalf("rank %d (tile %v) extended cell (%d,%d) = global (%d,%d): got %g, want %g",
						i, r.tile, ex, ey, gx, gy, got, want)
				}
			}
		}
	}
}

// TestFillEdgeHalo checks the ghost-row synthesis of the edge ranks for
// each non-periodic boundary condition.
func TestFillEdgeHalo(t *testing.T) {
	const nx, ny = 5, 9
	for _, tc := range []struct {
		bc grid.Boundary
		// wantTop(x) is the expected ghost value just above the domain,
		// wantBot(x) just below, given init value 10*y+x.
		wantTop func(x int) float64
		wantBot func(x int) float64
	}{
		{grid.Clamp, func(x int) float64 { return float64(x) }, func(x int) float64 { return float64(10*(ny-1) + x) }},
		{grid.Mirror, func(x int) float64 { return float64(10 + x) }, func(x int) float64 { return float64(10*(ny-2) + x) }},
		{grid.Constant, func(x int) float64 { return 7 }, func(x int) float64 { return 7 }},
		{grid.Zero, func(x int) float64 { return 0 }, func(x int) float64 { return 0 }},
	} {
		op := &stencil.Op2D[float64]{St: stencil.Laplace5(0.2), BC: tc.bc, BCValue: 7}
		init := grid.New[float64](nx, ny)
		init.FillFunc(func(x, y int) float64 { return float64(10*y + x) })
		c := exchangeOnce(t, op, init, 1, 3)
		top, bot := c.ranks[0], c.ranks[2]
		for x := 0; x < nx; x++ {
			if got := top.buf.Write.At(top.loX()+x, top.loY()-1); got != tc.wantTop(x) {
				t.Fatalf("%v top ghost at x=%d: got %g, want %g", tc.bc, x, got, tc.wantTop(x))
			}
			if got := bot.buf.Write.At(bot.loX()+x, bot.hiY()); got != tc.wantBot(x) {
				t.Fatalf("%v bottom ghost at x=%d: got %g, want %g", tc.bc, x, got, tc.wantBot(x))
			}
		}
	}
}

// TestFillSideHalo checks the ghost-column synthesis of the x-edge tiles of
// a 2-D rank grid for each non-periodic boundary condition — the x analogue
// of TestFillEdgeHalo the tile decomposition introduces.
func TestFillSideHalo(t *testing.T) {
	const nx, ny = 9, 6
	for _, tc := range []struct {
		bc grid.Boundary
		// wantLeft(y) is the expected ghost value just left of the domain,
		// wantRight(y) just right, given init value 10*y+x.
		wantLeft  func(y int) float64
		wantRight func(y int) float64
	}{
		{grid.Clamp, func(y int) float64 { return float64(10 * y) }, func(y int) float64 { return float64(10*y + nx - 1) }},
		{grid.Mirror, func(y int) float64 { return float64(10*y + 1) }, func(y int) float64 { return float64(10*y + nx - 2) }},
		{grid.Constant, func(y int) float64 { return 7 }, func(y int) float64 { return 7 }},
		{grid.Zero, func(y int) float64 { return 0 }, func(y int) float64 { return 0 }},
	} {
		op := &stencil.Op2D[float64]{St: stencil.Laplace5(0.2), BC: tc.bc, BCValue: 7}
		init := grid.New[float64](nx, ny)
		init.FillFunc(func(x, y int) float64 { return float64(10*y + x) })
		c := exchangeOnce(t, op, init, 3, 1)
		left, right := c.ranks[0], c.ranks[2]
		for y := 0; y < ny; y++ {
			if got := left.buf.Write.At(left.loX()-1, left.loY()+y); got != tc.wantLeft(y) {
				t.Fatalf("%v left ghost at y=%d: got %g, want %g", tc.bc, y, got, tc.wantLeft(y))
			}
			if got := right.buf.Write.At(right.hiX(), right.loY()+y); got != tc.wantRight(y) {
				t.Fatalf("%v right ghost at y=%d: got %g, want %g", tc.bc, y, got, tc.wantRight(y))
			}
		}
	}
}

// TestExchangeHalos runs one exchange iteration on a band chain and checks
// every rank sees its neighbours' boundary rows.
func TestExchangeHalos(t *testing.T) {
	const nx, ny, ranks = 4, 12, 3
	op := &stencil.Op2D[float64]{St: stencil.Laplace5(0.2), BC: grid.Clamp}
	init := grid.New[float64](nx, ny)
	init.FillFunc(func(x, y int) float64 { return float64(100*y + x) })
	c := exchangeOnce(t, op, init, 1, ranks)

	// Rank 1 owns rows 4..7: its top halo is row 3, its bottom halo row 8.
	mid := c.ranks[1]
	for x := 0; x < nx; x++ {
		if got := mid.buf.Write.At(mid.loX()+x, mid.loY()-1); got != float64(300+x) {
			t.Fatalf("top halo at x=%d: got %g", x, got)
		}
		if got := mid.buf.Write.At(mid.loX()+x, mid.hiY()); got != float64(800+x) {
			t.Fatalf("bottom halo at x=%d: got %g", x, got)
		}
	}
	if mid.stats.HaloExchanges != 1 {
		t.Fatalf("halo exchange counter %d", mid.stats.HaloExchanges)
	}
	if mid.stats.HaloByDir != [4]int{1, 1, 0, 0} {
		t.Fatalf("band rank per-direction counters %v, want up/down only", mid.stats.HaloByDir)
	}
}

// TestExchangeHalosGridCorners runs one exchange iteration on a 2x2 rank
// grid and checks that every halo strip — columns, rows, and crucially the
// corner blocks threaded through the full-width row messages — holds
// exactly the value the global domain has at that point, with the domain
// border synthesised by the boundary condition.
func TestExchangeHalosGridCorners(t *testing.T) {
	const nx, ny = 8, 6
	op := &stencil.Op2D[float64]{St: stencil.BoxBlur[float64](), BC: grid.Clamp}
	init := grid.New[float64](nx, ny)
	init.FillFunc(func(x, y int) float64 { return float64(100*y + x) })
	c := exchangeOnce(t, op, init, 2, 2)

	checkExtendedFrame(t, c, init, grid.Clamp)
	for i, r := range c.ranks {
		if r.stats.HaloByDir[Up]+r.stats.HaloByDir[Down] != 1 || r.stats.HaloByDir[Left]+r.stats.HaloByDir[Right] != 1 {
			t.Fatalf("rank %d of a 2x2 grid sent %v messages, want one per wired axis side", i, r.stats.HaloByDir)
		}
	}
}

// TestExchangeHalosPeriodicTorus is the corner check under periodic
// boundaries, where every halo — wrap-around corners included — is real
// remote data.
func TestExchangeHalosPeriodicTorus(t *testing.T) {
	const nx, ny = 8, 6
	op := &stencil.Op2D[float64]{St: stencil.BoxBlur[float64](), BC: grid.Periodic}
	init := grid.New[float64](nx, ny)
	init.FillFunc(func(x, y int) float64 { return float64(100*y + x) })
	c := exchangeOnce(t, op, init, 2, 2)

	checkExtendedFrame(t, c, init, grid.Periodic)
	for i, r := range c.ranks {
		if r.stats.HaloByDir != [4]int{1, 1, 1, 1} {
			t.Fatalf("torus rank %d sent %v messages, want one per direction", i, r.stats.HaloByDir)
		}
	}
}

// TestBarrier hammers the cyclic barrier across generations: no party may
// pass generation g+1 before every party has arrived at generation g.
func TestBarrier(t *testing.T) {
	const parties, gens = 8, 200
	b := newBarrier(parties)
	var mu sync.Mutex
	arrived := make([]int, parties)

	var wg sync.WaitGroup
	for p := 0; p < parties; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for g := 0; g < gens; g++ {
				mu.Lock()
				arrived[p] = g + 1
				for _, a := range arrived {
					if a < g {
						mu.Unlock()
						t.Errorf("party passed generation %d while another was at %d", g, a)
						return
					}
				}
				mu.Unlock()
				b.await()
			}
		}(p)
	}
	wg.Wait()
}
