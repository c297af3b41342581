package checkpoint

import (
	"testing"
)

// TestBank2DTwoGenerationRetention pins the bank's retention policy: the
// two most recent generations per key survive, older ones are gone, and
// restores match on the exact iteration only.
func TestBank2DTwoGenerationRetention(t *testing.T) {
	var b Bank2D[float64]
	if g := b.Gens(3); g != nil {
		t.Fatalf("empty bank lists generations %v", g)
	}

	b.Save(3, 16, []float64{1, 2})
	b.Save(3, 32, []float64{3, 4})
	b.Save(3, 48, []float64{5, 6})

	if g := b.Gens(3); len(g) != 2 || g[0] != 48 || g[1] != 32 {
		t.Fatalf("Gens = %v, want [48 32]", g)
	}
	dst := make([]float64, 2)
	if b.Restore(3, 16, dst) {
		t.Fatal("restored an evicted generation")
	}
	if !b.Restore(3, 32, dst) || dst[0] != 3 || dst[1] != 4 {
		t.Fatalf("generation 32 restore = %v", dst)
	}
	if !b.Restore(3, 48, dst) || dst[0] != 5 || dst[1] != 6 {
		t.Fatalf("generation 48 restore = %v", dst)
	}
	if b.Restore(4, 48, dst) {
		t.Fatal("restored an unknown key")
	}
}

// TestBank2DCopySemantics pins that Save copies its input and Data exposes
// the retained snapshot without aliasing the caller's slice.
func TestBank2DCopySemantics(t *testing.T) {
	var b Bank2D[float32]
	src := []float32{7, 8, 9}
	b.Save(0, 5, src)
	src[0] = -1
	if d := b.Data(0, 5); d == nil || d[0] != 7 {
		t.Fatalf("bank aliased the caller's slice: %v", d)
	}
	if d := b.Data(0, 6); d != nil {
		t.Fatalf("Data matched a wrong iteration: %v", d)
	}
}

// TestBank2DStats pins the cost accounting the stats report surfaces.
func TestBank2DStats(t *testing.T) {
	var b Bank2D[float64]
	b.Save(1, 10, make([]float64, 4))
	b.Save(2, 10, make([]float64, 6))
	dst := make([]float64, 6)
	b.Restore(2, 10, dst)

	st := b.Stats()
	if st.Saves != 2 || st.Restores != 1 || st.PointsCopied != 4+6+6 {
		t.Fatalf("stats = %+v", st)
	}
}
