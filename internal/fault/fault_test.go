package fault

import (
	"math"
	"math/rand"
	"testing"

	"stencilabft/internal/num"
)

func TestPlanIndexesByIteration(t *testing.T) {
	p := NewPlan(
		Injection{Iteration: 3, X: 1, Y: 2, Bit: 5},
		Injection{Iteration: 3, X: 4, Y: 4, Bit: 6},
		Injection{Iteration: 7, X: 0, Y: 0, Bit: 31},
	)
	if len(p.ForIteration(3)) != 2 || len(p.ForIteration(7)) != 1 || p.ForIteration(5) != nil {
		t.Fatal("plan indexing wrong")
	}
	if len(p.Injections()) != 3 {
		t.Fatal("Injections() incomplete")
	}
	var nilPlan *Plan
	if nilPlan.ForIteration(0) != nil {
		t.Fatal("nil plan should yield no injections")
	}
}

func TestRandomSingleRanges(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		inj := RandomSingle(rng, 128, 64, 32, 8, 32)
		if inj.Iteration < 0 || inj.Iteration >= 128 ||
			inj.X < 0 || inj.X >= 64 ||
			inj.Y < 0 || inj.Y >= 32 ||
			inj.Z < 0 || inj.Z >= 8 ||
			inj.Bit < 0 || inj.Bit >= 32 {
			t.Fatalf("out-of-range injection %+v", inj)
		}
	}
}

func TestRandomSingleDeterministic(t *testing.T) {
	a := RandomSingle(rand.New(rand.NewSource(9)), 10, 10, 10, 10, 32)
	b := RandomSingle(rand.New(rand.NewSource(9)), 10, 10, 10, 10, 32)
	if a != b {
		t.Fatal("same seed produced different injections")
	}
}

func TestFixedBitHoldsBit(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		inj := FixedBit(rng, 64, 16, 16, 4, 23)
		if inj.Bit != 23 {
			t.Fatalf("bit drifted: %+v", inj)
		}
	}
}

func TestInjectorSitesOnlyTargetIteration(t *testing.T) {
	plan := NewPlan(Injection{Iteration: 5, X: 2, Y: 3, Bit: 31})
	in := NewInjector[float32](plan)
	if in.SitesFor(4) != nil || in.SitesFor(6) != nil {
		t.Fatal("sites returned for wrong iteration")
	}
	sites := in.SitesFor(5)
	if len(sites) != 1 || sites[0].X != 2 || sites[0].Y != 3 || sites[0].Z != 0 {
		t.Fatalf("sites for target iteration: %+v", sites)
	}
	// A site that is never applied (its cell outside what was swept) is
	// never logged.
	if len(in.Hits()) != 0 {
		t.Fatal("hit recorded before the site was applied")
	}
	// Applied: sign bit flipped, hit recorded.
	if got := sites[0].Mutate(1.5); got != -1.5 {
		t.Fatalf("target point not flipped: %g", got)
	}
	if len(in.Hits()) != 1 {
		t.Fatal("hit not recorded")
	}
}

func TestInjectorFlipMatchesNumFlipBit(t *testing.T) {
	plan := NewPlan(Injection{Iteration: 0, X: 0, Y: 0, Z: 0, Bit: 30})
	in := NewInjector[float64](plan)
	v := 3.25
	if got, want := in.SitesFor(0)[0].Mutate(v), num.FlipBit(v, 30); got != want {
		t.Fatalf("site flip %g, FlipBit %g", got, want)
	}
}

func TestInjectionString(t *testing.T) {
	s := Injection{Iteration: 2, X: 1, Y: 3, Z: 0, Bit: 31}.String()
	if s == "" || math.MaxInt == 0 {
		t.Fatal("unreachable")
	}
	if want := "flip bit 31 at (1,3,0) during iteration 2"; s != want {
		t.Fatalf("String() = %q, want %q", s, want)
	}
}
