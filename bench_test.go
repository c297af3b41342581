// Benchmarks regenerating the timing-shaped view of every table and figure
// in the paper's evaluation (Section 5), plus the ablation benches of
// DESIGN.md. Each BenchmarkFigN corresponds to the campaign driver of the
// same figure (cmd/abftcampaign regenerates the full statistical view);
// testing.B controls repetition here, so a single b.N iteration is one
// complete experiment unit (a full protected run).
//
// Benchmark sizes default to the paper's small tile (64x64x8) with reduced
// iteration counts so `go test -bench=.` completes on a laptop; the
// reported per-op times are what EXPERIMENTS.md compares across methods.
package stencilabft_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"stencilabft/internal/campaign"
	"stencilabft/internal/checksum"
	"stencilabft/internal/core"
	"stencilabft/internal/dist"
	"stencilabft/internal/fault"
	"stencilabft/internal/grid"
	"stencilabft/internal/num"
	"stencilabft/internal/resilience"
	"stencilabft/internal/serve"
	"stencilabft/internal/stencil"
	"stencilabft/internal/telemetry"
)

// benchConfig is the tile the benches run: the paper's small configuration
// with a shortened iteration count.
func benchConfig() campaign.TileConfig {
	return campaign.TileConfig{
		Nx: 64, Ny: 64, Nz: 8,
		Iterations: 32,
		Reps:       1,
		Epsilon:    1e-5,
		Period:     16,
		Seed:       1,
		Workers:    1, // deterministic single-worker timing; A4 varies this
	}
}

func newBenchRunner(b *testing.B) *campaign.Runner {
	b.Helper()
	r, err := campaign.NewRunner(benchConfig())
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// BenchmarkTable1 runs one repetition of the Table-1 configuration under
// each method, the cost unit every figure below is built from.
func BenchmarkTable1(b *testing.B) {
	r := newBenchRunner(b)
	for _, m := range []campaign.Method{campaign.NoABFT, campaign.Online, campaign.Offline} {
		b.Run(m.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r.Run(m, nil)
			}
		})
	}
}

// BenchmarkFig8 times the method x scenario matrix of Figure 8: mean
// execution time, error-free versus a single random bit-flip.
func BenchmarkFig8(b *testing.B) {
	r := newBenchRunner(b)
	for _, m := range []campaign.Method{campaign.NoABFT, campaign.Online, campaign.Offline} {
		b.Run(m.String()+"/error-free", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r.Run(m, nil)
			}
		})
		b.Run(m.String()+"/bit-flip", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r.Run(m, r.RandomPlan(i))
			}
		})
	}
}

// BenchmarkFig9 measures the accuracy experiment's cost: a protected run
// plus the l2-error evaluation against the reference (the arithmetic-error
// bars of Figure 9 are statistics over exactly this unit).
func BenchmarkFig9(b *testing.B) {
	r := newBenchRunner(b)
	for _, m := range []campaign.Method{campaign.Online, campaign.Offline} {
		b.Run(m.String(), func(b *testing.B) {
			var sink float64
			for i := 0; i < b.N; i++ {
				res := r.Run(m, r.RandomPlan(i))
				sink += res.L2
			}
			_ = sink
		})
	}
}

// BenchmarkFig10 times fixed-bit injection runs at the three probe bits the
// figure's regions are defined by: a low fraction bit (undetectable), a
// high exponent bit (always detected) and the sign bit.
func BenchmarkFig10(b *testing.B) {
	r := newBenchRunner(b)
	for _, bit := range []int{4, 30, 31} {
		for _, m := range []campaign.Method{campaign.Online, campaign.OnlinePaperEq10, campaign.Offline} {
			b.Run(fmt.Sprintf("bit%02d/%s", bit, m), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					r.Run(m, r.FixedBitPlan(bit, i))
				}
			})
		}
	}
}

// BenchmarkFig11 times the offline method across the detection-period sweep
// of Figure 11, error-free and with one injected bit-flip.
func BenchmarkFig11(b *testing.B) {
	for _, period := range []int{1, 4, 16, 64} {
		cfg := benchConfig()
		cfg.Period = period
		r, err := campaign.NewRunner(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("period%03d/error-free", period), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r.Run(campaign.Offline, nil)
			}
		})
		b.Run(fmt.Sprintf("period%03d/bit-flip", period), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r.Run(campaign.Offline, r.RandomPlan(i))
			}
		})
	}
}

// --- Ablation benches (DESIGN.md A1-A4) ---

// BenchmarkAblationBoundaryTerms (A1) compares the checksum interpolation
// cost with exact alpha/beta, with the terms dropped (the paper's
// listings), and under periodic boundaries where they vanish by algebra.
func BenchmarkAblationBoundaryTerms(b *testing.B) {
	const nx, ny = 512, 512
	rng := rand.New(rand.NewSource(1))
	src := grid.New[float64](nx, ny)
	src.FillFunc(func(x, y int) float64 { return rng.Float64() })
	prev := checksum.NewVectors[float64](nx, ny)
	prev.Compute(src)
	out := make([]float64, ny)

	cases := []struct {
		name string
		bc   grid.Boundary
		drop bool
	}{
		{"clamp-exact", grid.Clamp, false},
		{"clamp-dropped", grid.Clamp, true},
		{"periodic", grid.Periodic, false},
	}
	for _, c := range cases {
		op := &stencil.Op2D[float64]{St: stencil.Laplace5(0.2), BC: c.bc}
		ip, err := checksum.NewInterp2D(op, nx, ny)
		if err != nil {
			b.Fatal(err)
		}
		ip.DropBoundaryTerms = c.drop
		edges := checksum.LiveEdges(src, c.bc, 0)
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ip.InterpolateB(prev.B, edges, out)
			}
		})
	}
}

// BenchmarkAblationFusedChecksum (A2) compares a plain sweep, the fused
// sweep (checksum accumulated inside the kernel loop, the paper's Figure 2)
// and a sweep followed by a separate checksum pass.
func BenchmarkAblationFusedChecksum(b *testing.B) {
	const nx, ny = 512, 512
	op := &stencil.Op2D[float32]{St: stencil.Laplace5[float32](0.2), BC: grid.Clamp}
	src := grid.New[float32](nx, ny)
	src.FillFunc(func(x, y int) float32 { return float32(x^y) * 0.01 })
	dst := grid.New[float32](nx, ny)
	bsum := make([]float32, ny)

	b.Run("plain", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			op.Sweep(dst, src)
		}
	})
	b.Run("fused", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			op.SweepFused(dst, src, bsum)
		}
	})
	b.Run("separate", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			op.Sweep(dst, src)
			stencil.ChecksumB(dst, bsum)
		}
	})
}

// BenchmarkAblationKahan (A3) compares plain and compensated checksum
// accumulation over a full grid.
func BenchmarkAblationKahan(b *testing.B) {
	const nx, ny = 512, 512
	g := grid.New[float32](nx, ny)
	g.FillFunc(func(x, y int) float32 { return float32(x*31+y) * 0.001 })
	v := checksum.NewVectors[float32](nx, ny)

	b.Run("plain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			v.Compute(g)
		}
	})
	b.Run("kahan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			v.ComputeKahan(g)
		}
	})
}

// BenchmarkAblationParallelSweep (A4) measures the row-partitioned parallel
// sweep at increasing worker counts. On a single-core machine the times
// should stay flat (the decomposition itself is nearly free); on multicore
// machines they fall with the worker count.
func BenchmarkAblationParallelSweep(b *testing.B) {
	const nx, ny = 1024, 1024
	op := &stencil.Op2D[float32]{St: stencil.Laplace5[float32](0.2), BC: grid.Clamp}
	src := grid.New[float32](nx, ny)
	src.FillFunc(func(x, y int) float32 { return float32(x + y) })
	dst := grid.New[float32](nx, ny)
	bsum := make([]float32, ny)

	for _, workers := range []int{1, 2, 4, 8} {
		pool := &stencil.Pool{Workers: workers}
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				op.SweepParallel(pool, dst, src, bsum)
			}
		})
		pool.Close()
	}
}

// BenchmarkAblationMultiError (A5) times the detection+correction slow path
// under a two-error iteration, isolating the cost the online protector pays
// only when something is actually wrong.
func BenchmarkAblationMultiError(b *testing.B) {
	const nx, ny = 256, 256
	op := &stencil.Op2D[float32]{St: stencil.Laplace5[float32](0.2), BC: grid.Clamp}
	init := grid.New[float32](nx, ny)
	init.FillFunc(func(x, y int) float32 { return 300 })
	plan := fault.NewPlan(
		fault.Injection{Iteration: 0, X: 10, Y: 20, Bit: 30},
		fault.Injection{Iteration: 0, X: 200, Y: 100, Bit: 29},
	)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := core.NewOnline2D(op, init, core.Options[float32]{})
		if err != nil {
			b.Fatal(err)
		}
		injector := fault.NewInjector[float32](plan)
		p.StepInject(injector.HookFor(0))
		if p.Stats().CorrectedPoints != 2 {
			b.Fatalf("expected 2 corrections, got %+v", p.Stats())
		}
	}
}

// BenchmarkAblationConeRecovery (A6) compares offline recovery costs: a
// full rollback-and-recompute versus the light-cone recomputation, for an
// interior error on a large domain with a short detection period. The cone
// sweeps O(Δ·(rΔ)²) points instead of O(Δ·nx·ny).
func BenchmarkAblationConeRecovery(b *testing.B) {
	const n, iters, period = 256, 16, 8
	op := &stencil.Op2D[float64]{St: stencil.Laplace5(0.2), BC: grid.Clamp}
	init := grid.New[float64](n, n)
	init.FillFunc(func(x, y int) float64 { return 300 + float64((x*31+y)%17) })
	inj := fault.Injection{Iteration: 3, X: n / 2, Y: n / 2, Bit: 58}

	for _, mode := range []struct {
		name string
		rec  core.RecoveryMode
	}{{"full-rollback", core.FullRollback}, {"cone", core.ConeRecovery}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opt := core.Options[float64]{
					Period:   period,
					Recovery: mode.rec,
					Detector: checksum.Detector[float64]{Epsilon: 1e-9, AbsFloor: 1},
				}
				p, err := core.NewOffline2D(op, init, opt)
				if err != nil {
					b.Fatal(err)
				}
				injector := fault.NewInjector[float64](fault.NewPlan(inj))
				for it := 0; it < iters; it++ {
					p.StepInject(injector.HookFor(it))
				}
				p.Finalize()
				st := p.Stats()
				if st.Detections == 0 {
					b.Fatal("injection not detected")
				}
				if mode.rec == core.ConeRecovery && st.ConeRecoveries == 0 {
					b.Fatal("cone recovery did not engage")
				}
			}
		})
	}
}

// BenchmarkDistCluster measures the rank-decomposed deployment end to end:
// per-rank ABFT with halo exchange, at increasing rank counts.
func BenchmarkDistCluster(b *testing.B) {
	const n, iters = 192, 8
	op := &stencil.Op2D[float64]{St: stencil.Laplace5(0.2), BC: grid.Clamp}
	init := grid.New[float64](n, n)
	init.FillFunc(func(x, y int) float64 { return 100 + float64(x+y) })
	for _, ranks := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("ranks%d", ranks), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c, err := dist.NewCluster(op, init, ranks, dist.Options[float64]{
					Detector: checksum.Detector[float64]{Epsilon: 1e-9, AbsFloor: 1},
				})
				if err != nil {
					b.Fatal(err)
				}
				c.Run(iters)
				if c.Stats().Detections != 0 {
					b.Fatal("false positive in bench")
				}
				c.Close()
			}
		})
	}
}

// BenchmarkCluster compares the decomposition topologies at a fixed rank
// count: 1-D row bands (4x1) against the 2-D Cartesian grid (2x2), at the
// perf-trajectory domain edges. The work per rank is identical (same
// points, same per-rank ABFT); what differs is the halo surface — bands
// exchange 2 full-width rows per interior seam, the grid exchanges shorter
// rows plus packed columns — so this measures the surface-to-volume
// economics of the topology, the scaling argument behind 2-D/3-D
// decompositions. BENCH_pr4.json records the trajectory point.
func BenchmarkCluster(b *testing.B) {
	const iters = 4
	for _, n := range []int{512, 1024} {
		init := grid.New[float64](n, n)
		init.FillFunc(func(x, y int) float64 { return 100 + float64((x*31+y*17)%23) })
		op := &stencil.Op2D[float64]{St: stencil.Laplace5(0.2), BC: grid.Clamp}
		for _, topo := range []struct {
			name   string
			rx, ry int
		}{
			{"bands4x1", 1, 4},
			{"grid2x2", 2, 2},
		} {
			b.Run(fmt.Sprintf("n%d/%s", n, topo.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					c, err := dist.NewClusterGrid(op, init, topo.rx, topo.ry, dist.Options[float64]{
						Detector: checksum.Detector[float64]{Epsilon: 1e-9, AbsFloor: 1},
					})
					if err != nil {
						b.Fatal(err)
					}
					c.Run(iters)
					if c.Stats().Detections != 0 {
						b.Fatal("false positive in bench")
					}
					c.Close()
				}
			})
		}
	}
}

// BenchmarkClusterOverlap measures the steady-state per-iteration cost of
// the overlapped rank step: the cluster is constructed once (persistent
// rank goroutines, plan caches, pack buffers all warm), then Run(1) is
// timed on its own — isolating the compute/communication overlap from the
// construction cost that dominates BenchmarkCluster. The k axis is the
// depth-k ghost-zone trade: k > 1 amortises a halo exchange and barrier
// over k iterations at the price of redundantly recomputed boundary
// shells. Steady state must also be allocation-free.
func BenchmarkClusterOverlap(b *testing.B) {
	for _, n := range []int{512, 1024} {
		init := grid.New[float64](n, n)
		init.FillFunc(func(x, y int) float64 { return 100 + float64((x*31+y*17)%23) })
		op := &stencil.Op2D[float64]{St: stencil.Laplace5(0.2), BC: grid.Clamp}
		for _, topo := range []struct {
			name   string
			rx, ry int
		}{
			{"bands4x1", 1, 4},
			{"grid2x2", 2, 2},
		} {
			for _, k := range []int{1, 2, 4} {
				b.Run(fmt.Sprintf("n%d/%s/k%d", n, topo.name, k), func(b *testing.B) {
					c, err := dist.NewClusterGrid(op, init, topo.rx, topo.ry, dist.Options[float64]{
						Detector:  checksum.Detector[float64]{Epsilon: 1e-9, AbsFloor: 1},
						HaloDepth: k,
					})
					if err != nil {
						b.Fatal(err)
					}
					defer c.Close()
					c.Run(2 * k) // warm-up: full exchange cycles
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						c.Run(1)
					}
					b.StopTimer()
					if c.Stats().Detections != 0 {
						b.Fatal("false positive in bench")
					}
				})
			}
		}
	}
}

// benchSweepKernels compares the generic k-point sweep loop against the
// specialized kernels (star5, box9, star7) the plan dispatcher selects —
// the microscopic view of the kernel-specialization win. ForceGeneric pins
// the baseline to the dynamic loop on the same operator shape; the "fast"
// variants go through normal dispatch. Results are bit-identical either way
// (the pin tests in internal/stencil assert it), so this measures pure
// instruction-selection gain.
func benchSweepKernels[T num.Float](b *testing.B) {
	for _, n := range []int{64, 512, 1024} {
		kernels := []struct {
			name string
			st   *stencil.Stencil[T]
		}{
			{"star5", stencil.Laplace5[T](0.2)},
			{"box9", stencil.BoxBlur[T]()},
		}
		for _, k := range kernels {
			src := grid.New[T](n, n)
			src.FillFunc(func(x, y int) T { return T(x^y) * 0.01 })
			dst := grid.New[T](n, n)
			bsum := make([]T, n)
			for _, mode := range []struct {
				name  string
				force bool
			}{{"generic", true}, {"fast", false}} {
				op := &stencil.Op2D[T]{St: k.st, BC: grid.Clamp, ForceGeneric: mode.force}
				b.Run(fmt.Sprintf("%s/n%d/%s", k.name, n, mode.name), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						op.SweepFused(dst, src, bsum)
					}
				})
			}
		}
	}
	// The 3-D star at the paper's tile depth; n is the layer edge.
	for _, n := range []int{64, 192} {
		const nz = 8
		st := stencil.SevenPoint3D[T](0.4, 0.1, 0.1, 0.1, 0.1, 0.05, 0.15)
		src := grid.New3D[T](n, n, nz)
		src.FillFunc(func(x, y, z int) T { return T(x^y^z) * 0.01 })
		dst := grid.New3D[T](n, n, nz)
		for _, mode := range []struct {
			name  string
			force bool
		}{{"generic", true}, {"fast", false}} {
			op := &stencil.Op3D[T]{St: st, BC: grid.Clamp, ForceGeneric: mode.force}
			b.Run(fmt.Sprintf("star7/n%dx%d/%s", n, nz, mode.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					op.Sweep(dst, src)
				}
			})
		}
	}
}

// BenchmarkSweepKernels is the generic-vs-specialized kernel matrix for
// float32 and float64 — the first point of the recorded perf trajectory
// (BENCH_pr3.json; the CI bench step regenerates it as an artifact).
func BenchmarkSweepKernels(b *testing.B) {
	b.Run("float32", func(b *testing.B) { benchSweepKernels[float32](b) })
	b.Run("float64", func(b *testing.B) { benchSweepKernels[float64](b) })
}

// BenchmarkOnlineStep2D isolates the per-iteration cost of the online
// protector against the unprotected sweep at the paper's two tile edges —
// the microscopic view of the <8% overhead claim.
func BenchmarkOnlineStep2D(b *testing.B) {
	for _, n := range []int{64, 512} {
		op := &stencil.Op2D[float32]{St: stencil.Laplace5[float32](0.2), BC: grid.Clamp}
		init := grid.New[float32](n, n)
		init.FillFunc(func(x, y int) float32 { return 300 })
		b.Run(fmt.Sprintf("n%d/none", n), func(b *testing.B) {
			p, err := core.NewNone2D(op, init, core.Options[float32]{})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Step()
			}
		})
		b.Run(fmt.Sprintf("n%d/online", n), func(b *testing.B) {
			p, err := core.NewOnline2D(op, init, core.Options[float32]{})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Step()
			}
		})
	}
}

// BenchmarkClusterTelemetry runs the same 2x2 clustered workload with
// telemetry off (nil collector: the hot path pays only nil checks), with
// phase counters plus the span recorder, and with counters only (span ring
// disabled). The off/counters gap is the acceptance number for PR 6: the
// instrumentation must stay within 2% of the uninstrumented run
// (BENCH_pr6.json records the measured point). ReportAllocs pins the
// disabled case's zero-allocation claim at cluster scope.
func BenchmarkClusterTelemetry(b *testing.B) {
	const n, iters = 512, 4
	init := grid.New[float64](n, n)
	init.FillFunc(func(x, y int) float64 { return 100 + float64((x*31+y*17)%23) })
	op := &stencil.Op2D[float64]{St: stencil.Laplace5(0.2), BC: grid.Clamp}
	for _, mode := range []struct {
		name string
		tel  func() *telemetry.Collector
	}{
		{"off", func() *telemetry.Collector { return nil }},
		{"on", func() *telemetry.Collector { return telemetry.New(0) }},
		{"counters-only", func() *telemetry.Collector { return telemetry.New(-1) }},
	} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c, err := dist.NewClusterGrid(op, init, 2, 2, dist.Options[float64]{
					Detector:  checksum.Detector[float64]{Epsilon: 1e-9, AbsFloor: 1},
					Telemetry: mode.tel(),
				})
				if err != nil {
					b.Fatal(err)
				}
				c.Run(iters)
				if c.Stats().Detections != 0 {
					b.Fatal("false positive in bench")
				}
				c.Close()
			}
		})
	}
}

// BenchmarkClusterBuddy runs the same 2x2 clustered workload with buddy
// checkpointing off and at the default drill period j=16 — every rank
// packs its restartable state straight into its bank slot and mirrors it
// across a halo edge once per period, overlapped with the barrier wait.
// One op is a 96-iteration segment (6 checkpoint rounds) of a long-lived
// cluster, so the number is the steady-state marginal cost — banks warm,
// construction excluded — matching how a resilient run actually amortises.
// The off/j16 gap is the acceptance number for PR 7: the resilience tax
// must stay within 10% of the unprotected cluster (BENCH_pr7.json records
// the measured point).
func BenchmarkClusterBuddy(b *testing.B) {
	const n, iters, period = 512, 96, 16
	init := grid.New[float64](n, n)
	init.FillFunc(func(x, y int) float64 { return 100 + float64((x*31+y*17)%23) })
	op := &stencil.Op2D[float64]{St: stencil.Laplace5(0.2), BC: grid.Clamp}
	for _, mode := range []struct {
		name   string
		period int
	}{
		{"off", 0},
		{"j16", period},
	} {
		b.Run(mode.name, func(b *testing.B) {
			opt := dist.Options[float64]{
				Detector: checksum.Detector[float64]{Epsilon: 1e-9, AbsFloor: 1},
			}
			var buddy *resilience.Buddy[float64]
			if mode.period > 0 {
				buddy = resilience.NewBuddy[float64](mode.period, nil)
				opt.AfterStep = buddy.AfterStep
			}
			c, err := dist.NewClusterGrid(op, init, 2, 2, opt)
			if err != nil {
				b.Fatal(err)
			}
			if buddy != nil {
				if err := buddy.Attach(c); err != nil {
					b.Fatal(err)
				}
			}
			defer c.Close()
			c.Run(iters) // warm-up segment: banks allocated, pages faulted
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Run(iters)
			}
			b.StopTimer()
			if c.Stats().Detections != 0 {
				b.Fatal("false positive in bench")
			}
			if buddy != nil && buddy.Stats().Saves == 0 {
				b.Fatal("no checkpoint round ran in bench")
			}
		})
	}
}

// BenchmarkClusterCRC prices the v2 checksummed wire (PR 8): every tcp
// frame now carries a CRC-32C over header and payload plus a per-edge
// sequence number — the integrity layer the chaos harness drills. The
// wire/roundtrip case isolates the framing itself (seal + parse + CRC
// verify of one halo-sized frame, throughput reported); the cluster cases
// run the same 2x2 workload on the chan backend (no frames at all) and on
// the tcp backend over in-process loopback, so the gap bounds the whole
// socket+framing tax and the recorded point (BENCH_pr8.json) tracks it
// across PRs. Fault-free steady state: no reconnects, no resends — the
// healing machinery must cost nothing until a fault engages it.
func BenchmarkClusterCRC(b *testing.B) {
	b.Run("wire/roundtrip", func(b *testing.B) {
		payload := make([]byte, 256*8) // one 256-column float64 halo strip
		for i := range payload {
			payload[i] = byte(i * 31)
		}
		var buf bytes.Buffer
		b.SetBytes(int64(len(payload)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := dist.WriteWireFrame(&buf, dist.WireFrame{Kind: dist.FrameState, Gen: uint32(i), Elem: 8, Payload: payload}); err != nil {
				b.Fatal(err)
			}
			if _, err := dist.ReadWireFrame(&buf); err != nil {
				b.Fatal(err)
			}
		}
	})

	const n, iters = 512, 8
	init := grid.New[float64](n, n)
	init.FillFunc(func(x, y int) float64 { return 100 + float64((x*31+y*17)%23) })
	op := &stencil.Op2D[float64]{St: stencil.Laplace5(0.2), BC: grid.Clamp}
	for _, backend := range []struct {
		name string
		tcp  bool
	}{
		{"chan2x2", false},
		{"tcp2x2", true},
	} {
		b.Run(backend.name, func(b *testing.B) {
			opt := dist.Options[float64]{
				Detector: checksum.Detector[float64]{Epsilon: 1e-9, AbsFloor: 1},
			}
			if backend.tcp {
				opt.NewTransport = func(rx, ry int, ring bool) dist.Transport[float64] {
					tr, err := dist.NewTCPTransport[float64](dist.TCPConfig{RanksX: rx, RanksY: ry, Ring: ring})
					if err != nil {
						b.Fatal(err)
					}
					return tr
				}
			}
			c, err := dist.NewClusterGrid(op, init, 2, 2, opt)
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			c.Run(iters) // warm-up segment: connections dialed, pages faulted
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Run(iters)
			}
			b.StopTimer()
			if c.Stats().Detections != 0 {
				b.Fatal("false positive in bench")
			}
		})
	}
}

// BenchmarkServeThroughput drives the full stencilserve path end to end —
// HTTP POST, scheduler queue, worker protocol, SSE completion — one job per
// op, each with a distinct generator seed so none hit the result cache.
// ns/op is the service's per-job latency under concurrent submitters; the
// inverse is jobs/sec.
func BenchmarkServeThroughput(b *testing.B) {
	srv, err := serve.New(serve.Config{Workers: 4, QuotaPerTenant: 256, QueueDepth: 1024})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var seed atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			body := fmt.Sprintf(`{"spec":{"stencil":{"name":"laplace5"},"bc":"clamp","scheme":"online",`+
				`"grid":{"nx":32,"ny":24,"generator":"uniform","seed":%d}},"iters":4}`, seed.Add(1))
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			var st struct {
				ID    string `json:"id"`
				State string `json:"state"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
				b.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				b.Fatalf("POST: status %d (%+v)", resp.StatusCode, st)
			}
			// The SSE stream ends when the job settles — no polling.
			ev, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
			if err != nil {
				b.Fatal(err)
			}
			terminal := ""
			sc := bufio.NewScanner(ev.Body)
			for sc.Scan() {
				if line, ok := strings.CutPrefix(sc.Text(), "event: "); ok {
					terminal = line
				}
			}
			ev.Body.Close()
			if terminal != "done" {
				b.Fatalf("job %s ended with %q", st.ID, terminal)
			}
		}
	})
}
