// Package campaign drives the paper's experiments (Section 5): it builds
// HotSpot3D problem instances, runs them under the three protection methods
// (No-ABFT, Online ABFT, Offline ABFT) with and without fault injection,
// and renders the same rows and series the paper's tables and figures
// report. Element type is float32 throughout, matching the paper's 32-bit
// state and bit-flip positions 0..31.
package campaign

import (
	"fmt"
	"math/rand"

	abft "stencilabft"
	"stencilabft/internal/checksum"
	"stencilabft/internal/fault"
	"stencilabft/internal/grid"
	"stencilabft/internal/hotspot"
	"stencilabft/internal/metrics"
	"stencilabft/internal/stencil"
)

// Method selects the protection scheme.
type Method int

// The protection methods compared throughout Section 5, plus the online
// variant with the paper's literal Equation (10) evaluation (used by the
// Figure 10 reproduction to exhibit the exponent-overflow residual).
const (
	NoABFT Method = iota
	Online
	Offline
	OnlinePaperEq10
)

// scheme maps the method onto the unified factory's Scheme key.
func (m Method) scheme() abft.Scheme {
	switch m {
	case NoABFT:
		return abft.None
	case Online, OnlinePaperEq10:
		return abft.Online
	case Offline:
		return abft.Offline
	default:
		panic(fmt.Sprintf("campaign: unknown method %d", int(m)))
	}
}

// String returns the method's display name as used in the paper's legends.
func (m Method) String() string {
	switch m {
	case NoABFT:
		return "No ABFT"
	case Online:
		return "ABFT (Online)"
	case Offline:
		return "ABFT (Offline)"
	case OnlinePaperEq10:
		return "ABFT (Online, paper Eq.10)"
	default:
		return fmt.Sprintf("method(%d)", int(m))
	}
}

// TileConfig describes one experiment configuration (one column of the
// paper's Table 1).
type TileConfig struct {
	Nx, Ny, Nz int
	Iterations int
	Reps       int     // experiment repetitions
	Epsilon    float32 // detection threshold
	Period     int     // offline detection/checkpoint period Δ
	Seed       int64   // base seed; rep i uses Seed+i
	Workers    int     // worker pool size; 0 = GOMAXPROCS
}

// Name renders the tile size the way the paper writes it.
func (c TileConfig) Name() string { return fmt.Sprintf("%dx%dx%d", c.Nx, c.Ny, c.Nz) }

// PaperConfigs returns the two configurations of Table 1, scaled by the
// given factor (1.0 = paper scale; smaller factors shrink the tile edge and
// repetition count proportionally for laptop-scale runs).
func PaperConfigs(scale float64) []TileConfig {
	if scale <= 0 {
		scale = 1
	}
	shrink := func(n int, lo int) int {
		v := int(float64(n) * scale)
		if v < lo {
			v = lo
		}
		return v
	}
	return []TileConfig{
		{
			Nx: shrink(64, 8), Ny: shrink(64, 8), Nz: 8,
			Iterations: shrink(128, 16),
			Reps:       shrink(1000, 5),
			Epsilon:    1e-5,
			Period:     16,
			Seed:       1,
		},
		{
			Nx: shrink(512, 16), Ny: shrink(512, 16), Nz: 8,
			Iterations: shrink(256, 16),
			Reps:       shrink(100, 3),
			Epsilon:    1e-5,
			Period:     16,
			Seed:       2,
		},
	}
}

// Result is the outcome of one protected (or unprotected) run.
type Result struct {
	Seconds float64    // wall time of the iteration loop
	L2      float64    // arithmetic error vs. the error-free reference (Eq. 11)
	Stats   abft.Stats // protector counters
}

// Runner caches the problem instance (model, operator, inputs, error-free
// reference) for one configuration so repetitions only pay for the run
// itself.
type Runner struct {
	Cfg  TileConfig
	op   *stencil.Op3D[float32]
	init *grid.Grid3D[float32]
	ref  *grid.Grid3D[float32]
	pool *stencil.Pool
}

// NewRunner builds the HotSpot3D instance for cfg and computes the
// error-free single-threaded reference result the paper's Equation (11)
// compares against.
func NewRunner(cfg TileConfig) (*Runner, error) {
	model, err := hotspot.NewModel[float32](hotspot.Config{Nx: cfg.Nx, Ny: cfg.Ny, Nz: cfg.Nz})
	if err != nil {
		return nil, err
	}
	power := hotspot.SyntheticPower[float32](hotspot.Config{Nx: cfg.Nx, Ny: cfg.Ny, Nz: cfg.Nz}, cfg.Seed)
	init := hotspot.SyntheticTemperature[float32](hotspot.Config{Nx: cfg.Nx, Ny: cfg.Ny, Nz: cfg.Nz}, cfg.Seed+1)
	op := model.Op(power)

	r := &Runner{Cfg: cfg, op: op, init: init}
	if cfg.Workers != 0 {
		r.pool = &stencil.Pool{Workers: cfg.Workers}
	} else {
		r.pool = stencil.NewPool()
	}

	// Error-free single-threaded reference (paper Section 5.1).
	refRun, err := abft.Build(abft.Spec[float32]{Op3D: op, Init3D: init})
	if err != nil {
		return nil, err
	}
	refRun.Run(cfg.Iterations)
	r.ref = refRun.Grid3D()
	return r, nil
}

// spec assembles the factory input for one repetition under the given
// method and fault plan.
func (r *Runner) spec(m Method, plan *fault.Plan) abft.Spec[float32] {
	return abft.Spec[float32]{
		Scheme:               m.scheme(),
		Op3D:                 r.op,
		Init3D:               r.init,
		Detector:             checksum.Detector[float32]{Epsilon: r.Cfg.Epsilon, AbsFloor: 1},
		Pool:                 r.pool,
		Period:               r.Cfg.Period,
		PaperExactCorrection: m == OnlinePaperEq10,
		Inject:               plan,
	}
}

// Run executes one repetition under the given method, with the fault plan
// applied (nil = error-free). Every method routes through the unified
// factory; timing covers the iteration loop (and the offline finalisation)
// only, like the paper's built-in execution-time measurement.
func (r *Runner) Run(m Method, plan *fault.Plan) Result {
	p, err := abft.Build(r.spec(m, plan))
	if err != nil {
		panic(err)
	}
	t := metrics.StartTimer()
	p.Run(r.Cfg.Iterations)
	p.Finalize()
	var res Result
	res.Seconds = t.Seconds()
	res.L2 = metrics.L2Error3D(p.Grid3D(), r.ref)
	res.Stats = p.Stats()
	return res
}

// RandomPlan draws the paper's single random bit-flip for repetition rep.
func (r *Runner) RandomPlan(rep int) *fault.Plan {
	rng := rand.New(rand.NewSource(r.Cfg.Seed + 1000 + int64(rep)))
	inj := fault.RandomSingle(rng, r.Cfg.Iterations, r.Cfg.Nx, r.Cfg.Ny, r.Cfg.Nz, 32)
	return fault.NewPlan(inj)
}

// FixedBitPlan draws a random injection with a fixed bit position
// (Figure 10's campaign shape) for repetition rep.
func (r *Runner) FixedBitPlan(bit, rep int) *fault.Plan {
	rng := rand.New(rand.NewSource(r.Cfg.Seed + 5000 + int64(bit)*10007 + int64(rep)))
	inj := fault.FixedBit(rng, r.Cfg.Iterations, r.Cfg.Nx, r.Cfg.Ny, r.Cfg.Nz, bit)
	return fault.NewPlan(inj)
}
