package checkpoint

import (
	"testing"

	"stencilabft/internal/grid"
)

// TestStoreOneLayerRoundTrip checkpoints a 2-D domain the way the offline
// protector does: as the one-layer stack, through a view sharing its storage.
func TestStoreOneLayerRoundTrip(t *testing.T) {
	g := grid.New[float64](4, 3)
	g.FillFunc(func(x, y int) float64 { return float64(x + 10*y) })
	b := [][]float64{{1, 2, 3}}

	var s Store[float64]
	if s.Valid() {
		t.Fatal("empty store reports valid")
	}
	s.Save(7, grid.Stack(g), b)
	if !s.Valid() || s.Iteration() != 7 {
		t.Fatal("save metadata wrong")
	}

	// Mutate, then restore.
	g.Fill(-1)
	b[0][0] = -1
	if iter := s.Restore(grid.Stack(g), b); iter != 7 {
		t.Fatalf("restore iteration %d", iter)
	}
	if g.At(2, 1) != 12 || b[0][0] != 1 {
		t.Fatal("restore did not recover state")
	}

	st := s.Stats()
	if st.Saves != 1 || st.Restores != 1 || st.PointsCopied != 24 {
		t.Fatalf("stats %+v", st)
	}
}

func TestStoreSaveIsSnapshot(t *testing.T) {
	g := grid.New[float64](2, 2)
	g.Fill(5)
	var s Store[float64]
	s.Save(0, grid.Stack(g), [][]float64{{10, 10}})
	g.Fill(9) // later mutation must not leak into the checkpoint
	restored := grid.New[float64](2, 2)
	s.Restore(grid.Stack(restored), [][]float64{make([]float64, 2)})
	if restored.At(0, 0) != 5 {
		t.Fatal("checkpoint aliased the live grid")
	}
}

func TestStoreOverwrite(t *testing.T) {
	g := grid.New[float64](2, 2)
	var s Store[float64]
	g.Fill(1)
	s.Save(1, grid.Stack(g), [][]float64{{2, 2}})
	g.Fill(2)
	s.Save(2, grid.Stack(g), [][]float64{{4, 4}})
	b := [][]float64{make([]float64, 2)}
	if s.Restore(grid.Stack(g), b); g.At(0, 0) != 2 || b[0][0] != 4 {
		t.Fatal("overwrite kept stale state")
	}
}

func TestStoreRestoreWithoutSavePanics(t *testing.T) {
	var s Store[float32]
	defer func() {
		if recover() == nil {
			t.Fatal("restore without save did not panic")
		}
	}()
	s.Restore(grid.New3D[float32](2, 2, 1), [][]float32{make([]float32, 2)})
}

func TestStoreRoundTrip(t *testing.T) {
	g := grid.New3D[float32](3, 2, 2)
	g.FillFunc(func(x, y, z int) float32 { return float32(x + 10*y + 100*z) })
	b := [][]float32{{1, 2}, {3, 4}}

	var s Store[float32]
	s.Save(16, g, b)
	g.Fill(0)
	b[1][0] = -9
	if iter := s.Restore(g, b); iter != 16 {
		t.Fatalf("iteration %d", iter)
	}
	if g.At(2, 1, 1) != 112 || b[1][0] != 3 {
		t.Fatal("3-D restore incomplete")
	}
	if s.Stats().Saves != 1 || s.Stats().Restores != 1 {
		t.Fatalf("stats %+v", s.Stats())
	}
}

func TestStoreShapeMismatchPanics(t *testing.T) {
	g := grid.New3D[float32](2, 2, 2)
	var s Store[float32]
	s.Save(0, g, [][]float32{{0, 0}, {0, 0}})
	defer func() {
		if recover() == nil {
			t.Fatal("shape mismatch did not panic")
		}
	}()
	s.Restore(grid.New3D[float32](3, 2, 2), [][]float32{{0, 0}, {0, 0}})
}
