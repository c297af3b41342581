// Package fault implements the paper's fault-injection methodology
// (Section 5.1): a single bit-flip injected at a random stencil iteration,
// at a random point of the computational domain, at a random bit position
// of the IEEE-754 representation — applied during the sweep, after the
// point has been updated and before it is stored, so the corruption has an
// immediate and visible impact on the stencil results.
//
// All randomness is seeded, making every campaign reproducible.
package fault

import (
	"fmt"
	"math/rand"
	"sync"

	"stencilabft/internal/num"
	"stencilabft/internal/stencil"
)

// Injection describes one planned bit-flip.
type Injection struct {
	Iteration int // stencil iteration (0-based) during which to inject
	X, Y, Z   int // domain coordinates (Z = 0 for 2-D domains)
	Bit       int // IEEE-754 bit position (0 = LSB of the fraction)
}

// String formats the injection for logs.
func (in Injection) String() string {
	return fmt.Sprintf("flip bit %d at (%d,%d,%d) during iteration %d", in.Bit, in.X, in.Y, in.Z, in.Iteration)
}

// Plan is a set of injections for one run, indexed by iteration.
type Plan struct {
	byIter map[int][]Injection
	all    []Injection
}

// NewPlan builds a plan from explicit injections.
func NewPlan(injs ...Injection) *Plan {
	p := &Plan{byIter: make(map[int][]Injection, len(injs))}
	for _, in := range injs {
		p.byIter[in.Iteration] = append(p.byIter[in.Iteration], in)
		p.all = append(p.all, in)
	}
	return p
}

// Injections returns every planned injection.
func (p *Plan) Injections() []Injection { return p.all }

// ForIteration returns the injections scheduled for the given iteration
// (nil for most iterations).
func (p *Plan) ForIteration(iter int) []Injection {
	if p == nil {
		return nil
	}
	return p.byIter[iter]
}

// RandomSingle draws the paper's random single bit-flip: uniform over
// iterations [0, iters), domain points [0,nx)x[0,ny)x[0,nz) and bit
// positions [0, bits). Pass nz = 1 for 2-D domains and bits = 32 for
// float32 state.
func RandomSingle(rng *rand.Rand, iters, nx, ny, nz, bits int) Injection {
	return Injection{
		Iteration: rng.Intn(iters),
		X:         rng.Intn(nx),
		Y:         rng.Intn(ny),
		Z:         rng.Intn(nz),
		Bit:       rng.Intn(bits),
	}
}

// FixedBit draws a random injection with the bit position held fixed — the
// campaign shape of the paper's Figure 10 (1,000 injections per bit
// position).
func FixedBit(rng *rand.Rand, iters, nx, ny, nz, bit int) Injection {
	return Injection{
		Iteration: rng.Intn(iters),
		X:         rng.Intn(nx),
		Y:         rng.Intn(ny),
		Z:         rng.Intn(nz),
		Bit:       bit,
	}
}

// Injector adapts a plan to the sweep engines' injection seam
// (stencil.InjectSource). It logs a hit when a site is applied, so tests and
// campaigns can assert the planned flips actually landed (an injection aimed
// at an out-of-range iteration or cell never fires). The hit log is
// mutex-guarded because the parallel sweep engines apply an iteration's
// sites from whichever workers own their rows or layers.
type Injector[T num.Float] struct {
	plan *Plan
	mu   sync.Mutex
	hits []Injection
}

// Hits returns a snapshot of the injections applied so far.
func (in *Injector[T]) Hits() []Injection {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]Injection, len(in.hits))
	copy(out, in.hits)
	return out
}

// NewInjector wraps a plan.
func NewInjector[T num.Float](plan *Plan) *Injector[T] {
	return &Injector[T]{plan: plan}
}

// SitesFor returns the sites of the given iteration: one bit flip per
// planned injection, nil for the iterations that have none.
func (in *Injector[T]) SitesFor(iter int) []stencil.Site[T] {
	injs := in.plan.ForIteration(iter)
	if len(injs) == 0 {
		return nil
	}
	sites := make([]stencil.Site[T], len(injs))
	for i, j := range injs {
		sites[i] = stencil.Site[T]{X: j.X, Y: j.Y, Z: j.Z, Mutate: func(v T) T {
			in.mu.Lock()
			in.hits = append(in.hits, j)
			in.mu.Unlock()
			return num.FlipBit(v, j.Bit)
		}}
	}
	return sites
}
