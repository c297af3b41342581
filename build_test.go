package stencilabft_test

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	abft "stencilabft"
	"stencilabft/internal/core"
	"stencilabft/internal/dist"
	"stencilabft/internal/grid"
)

// The matrix test drives Build over every Scheme × Deployment × Boundary
// combination and checks that a valid cell's error-free run is bit-identical
// to the protector the pre-redesign constructors assembled (the internal
// package entry points Build's registry wraps), while an unsupported cell
// fails loudly at Build time instead of mid-run.

const (
	matrixNx, matrixNy = 33, 40
	matrixIters        = 12
	matrixRanks        = 3
	matrixBlock        = 16
)

func matrixOp(bc grid.Boundary) *abft.Op2D[float64] {
	return &abft.Op2D[float64]{St: abft.Laplace5(0.2), BC: bc, BCValue: 42}
}

func matrixInit() *abft.Grid[float64] {
	g := abft.New[float64](matrixNx, matrixNy)
	g.FillFunc(func(x, y int) float64 { return 80 + float64((x*31+y*17)%23) + 0.25*float64(y) })
	return g
}

func strictDetector() abft.Detector[float64] {
	return abft.Detector[float64]{Epsilon: 1e-9, AbsFloor: 1}
}

// legacyRun assembles the cell's protector the pre-Build way (the internal
// constructors the deprecated wrappers used to call directly) and runs it
// error-free.
func legacyRun(t *testing.T, s abft.Scheme, d abft.Deployment, bc grid.Boundary) *abft.Grid[float64] {
	t.Helper()
	op, init := matrixOp(bc), matrixInit()
	copt := core.Options[float64]{Detector: strictDetector()}
	switch {
	case d == abft.Clustered:
		c, err := dist.NewClusterGrid(op, init, 1, matrixRanks, dist.Options[float64]{Detector: strictDetector()})
		if err != nil {
			t.Fatal(err)
		}
		c.Run(matrixIters)
		return c.Gather()
	default:
		var p abft.Protector[float64]
		var err error
		switch s {
		case abft.None:
			p, err = core.NewNone2D(op, init, copt)
		case abft.Online:
			p, err = core.NewOnline2D(op, init, copt)
		case abft.Offline:
			p, err = core.NewOffline2D(op, init, copt)
		case abft.Blocked:
			p, err = core.NewBlocked2D(op, init, matrixBlock, matrixBlock, copt)
		}
		if err != nil {
			t.Fatal(err)
		}
		p.Run(matrixIters)
		p.Finalize()
		return p.Grid()
	}
}

func TestBuildMatrixMatchesLegacy(t *testing.T) {
	schemes := []abft.Scheme{abft.None, abft.Online, abft.Offline, abft.Blocked}
	deployments := []abft.Deployment{abft.Local, abft.Clustered}
	boundaries := []grid.Boundary{grid.Clamp, grid.Periodic, grid.Mirror, grid.Constant, grid.Zero}

	for _, s := range schemes {
		for _, d := range deployments {
			supported := d == abft.Local || s == abft.Online
			for _, bc := range boundaries {
				t.Run(fmt.Sprintf("%s/%s/%s", s, d, bc), func(t *testing.T) {
					spec := abft.Spec[float64]{
						Scheme:     s,
						Deployment: d,
						Op2D:       matrixOp(bc),
						Init:       matrixInit(),
						Detector:   strictDetector(),
					}
					if d == abft.Clustered {
						spec.Ranks = matrixRanks
					}
					if s == abft.Blocked {
						spec.BlockX, spec.BlockY = matrixBlock, matrixBlock
					}
					p, err := abft.Build(spec)
					if !supported {
						if err == nil {
							t.Fatalf("unsupported cell %s/%s built without error", s, d)
						}
						return
					}
					if err != nil {
						t.Fatal(err)
					}
					p.Run(matrixIters)
					p.Finalize()
					if st := p.Stats(); st.Detections != 0 {
						t.Fatalf("false positive on an error-free run: %+v", st)
					}
					want := legacyRun(t, s, d, bc)
					if diff := p.Grid().MaxAbsDiff(want); diff != 0 {
						t.Fatalf("Build result deviates from the legacy constructor's by %g", diff)
					}
				})
			}
		}
	}
}

// TestBuildMatrix3D covers the 3-D cells of the local deployment against
// the internal 3-D constructors.
func TestBuildMatrix3D(t *testing.T) {
	op3 := func(bc grid.Boundary) *abft.Op3D[float64] {
		return &abft.Op3D[float64]{
			St: abft.SevenPoint3D[float64](0.5, 0.08, 0.08, 0.09, 0.09, 0.06, 0.10),
			BC: bc, BCValue: 42,
		}
	}
	init3 := func() *abft.Grid3D[float64] {
		g := abft.New3D[float64](14, 12, 4)
		g.FillFunc(func(x, y, z int) float64 { return 300 + float64((x*7+y*5+z*3)%13) })
		return g
	}
	for _, s := range []abft.Scheme{abft.None, abft.Online, abft.Offline} {
		for _, bc := range []grid.Boundary{grid.Clamp, grid.Periodic, grid.Zero} {
			t.Run(fmt.Sprintf("%s/%s", s, bc), func(t *testing.T) {
				p, err := abft.Build(abft.Spec[float64]{
					Scheme:   s,
					Op3D:     op3(bc),
					Init3D:   init3(),
					Detector: strictDetector(),
				})
				if err != nil {
					t.Fatal(err)
				}
				p.Run(matrixIters)
				p.Finalize()

				var want abft.Protector[float64]
				copt := core.Options[float64]{Detector: strictDetector()}
				switch s {
				case abft.None:
					want, err = core.NewNone3D(op3(bc), init3(), copt)
				case abft.Online:
					want, err = core.NewOnline3D(op3(bc), init3(), copt)
				case abft.Offline:
					want, err = core.NewOffline3D(op3(bc), init3(), copt)
				}
				if err != nil {
					t.Fatal(err)
				}
				want.Run(matrixIters)
				want.Finalize()
				if diff := p.Grid3D().MaxAbsDiff(want.Grid3D()); diff != 0 {
					t.Fatalf("Build 3-D result deviates from the legacy constructor's by %g", diff)
				}
			})
		}
	}
}

// TestBuildClusterTopologies drives the factory across the cluster
// topology surface: the Ranks shorthand, the explicit bands topology and
// the equivalent 1-column grid must produce bit-identical runs, and a
// proper 2-D rank grid must match the single-process reference while
// tagging its stats with the grid shape.
func TestBuildClusterTopologies(t *testing.T) {
	ref, err := abft.Build(abft.Spec[float64]{Op2D: matrixOp(grid.Clamp), Init: matrixInit()})
	if err != nil {
		t.Fatal(err)
	}
	ref.Run(matrixIters)

	build := func(t *testing.T, spec abft.Spec[float64]) *abft.Grid[float64] {
		t.Helper()
		spec.Scheme = abft.Online
		spec.Deployment = abft.Clustered
		spec.Op2D, spec.Init = matrixOp(grid.Clamp), matrixInit()
		spec.Detector = strictDetector()
		p, err := abft.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		p.Run(matrixIters)
		if st := p.Stats(); st.Detections != 0 {
			t.Fatalf("false positive: %+v", st)
		}
		return p.Grid()
	}

	shorthand := build(t, abft.Spec[float64]{Ranks: matrixRanks})
	if diff := shorthand.MaxAbsDiff(ref.Grid()); diff != 0 {
		t.Fatalf("Ranks shorthand deviates from reference by %g", diff)
	}
	column := build(t, abft.Spec[float64]{RanksX: 1, RanksY: matrixRanks})
	if diff := column.MaxAbsDiff(shorthand); diff != 0 {
		t.Fatalf("1-column grid deviates from the Ranks shorthand by %g", diff)
	}
	gridded := build(t, abft.Spec[float64]{RanksX: 3, RanksY: 2})
	if diff := gridded.MaxAbsDiff(ref.Grid()); diff != 0 {
		t.Fatalf("2-D rank grid deviates from reference by %g", diff)
	}

	p, err := abft.Build(abft.Spec[float64]{
		Scheme: abft.Online, Deployment: abft.Clustered,
		Op2D: matrixOp(grid.Clamp), Init: matrixInit(),
		Detector: strictDetector(), RanksX: 3, RanksY: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Run(1)
	if st := p.Stats(); st.Topology != "grid 2x3" {
		t.Fatalf("grid run topology %q", st.Topology)
	}
	if c, ok := p.(*abft.Cluster[float64]); !ok {
		t.Fatalf("grid cluster built %T", p)
	} else if c.Ranks() != 6 {
		t.Fatalf("grid cluster has %d ranks", c.Ranks())
	}
}

// TestBuildCluster3D covers the 3-D face of the cluster deployment: a
// layer-decomposed run built from a Spec must match the single-process 3-D
// reference bit for bit, expose per-rank stats through the concrete
// Cluster3D type, and report its topology as layers.
func TestBuildCluster3D(t *testing.T) {
	op3 := func() *abft.Op3D[float64] {
		return &abft.Op3D[float64]{
			St: abft.SevenPoint3D[float64](0.5, 0.08, 0.08, 0.09, 0.09, 0.06, 0.10),
			BC: grid.Clamp,
		}
	}
	init3 := func() *abft.Grid3D[float64] {
		g := abft.New3D[float64](14, 12, 6)
		g.FillFunc(func(x, y, z int) float64 { return 300 + float64((x*7+y*5+z*3)%13) })
		return g
	}
	ref, err := abft.Build(abft.Spec[float64]{Op3D: op3(), Init3D: init3()})
	if err != nil {
		t.Fatal(err)
	}
	ref.Run(matrixIters)

	p, err := abft.Build(abft.Spec[float64]{
		Scheme: abft.Online, Deployment: abft.Clustered,
		Op3D: op3(), Init3D: init3(), Ranks: 2, Detector: strictDetector(),
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Run(matrixIters)
	if st := p.Stats(); st.Detections != 0 || st.Topology != "layers 2" {
		t.Fatalf("3-D cluster stats: %+v", st)
	}
	if diff := p.Grid3D().MaxAbsDiff(ref.Grid3D()); diff != 0 {
		t.Fatalf("3-D cluster deviates from reference by %g", diff)
	}
	c, ok := p.(*abft.Cluster3D[float64])
	if !ok {
		t.Fatalf("3-D cluster built %T", p)
	}
	if rs := c.RankStats(); len(rs) != 2 || rs[0].HaloByDir[1] != matrixIters {
		t.Fatalf("per-rank stats: %+v", rs)
	}
	if err := c.Close(); err != nil { // slab ranks are persistent goroutines
		t.Fatal(err)
	}
}

// TestBuildInvalidSpecs covers the factory's error paths: every malformed
// or unsupported spec must fail at Build time with a descriptive error.
func TestBuildInvalidSpecs(t *testing.T) {
	op, init := matrixOp(grid.Clamp), matrixInit()
	op3 := &abft.Op3D[float64]{St: abft.SevenPoint3D[float64](0.5, 0.08, 0.08, 0.09, 0.09, 0.06, 0.10), BC: grid.Clamp}
	init3 := abft.New3D[float64](14, 12, 4)

	cases := []struct {
		name string
		spec abft.Spec[float64]
	}{
		{"cluster+3D with a rank grid (layer clusters take Ranks)", abft.Spec[float64]{
			Scheme: abft.Online, Deployment: abft.Clustered, Op3D: op3, Init3D: init3,
			RanksX: 1, RanksY: 2}},
		{"ranks and rank grid both set", abft.Spec[float64]{
			Scheme: abft.Online, Deployment: abft.Clustered, Op2D: op, Init: init, Ranks: 2,
			RanksX: 2, RanksY: 2}},
		{"rank grid with a zero factor", abft.Spec[float64]{
			Scheme: abft.Online, Deployment: abft.Clustered, Op2D: op, Init: init, RanksX: 2}},
		{"rank grid too fine for the stencil", abft.Spec[float64]{
			Scheme: abft.Online, Deployment: abft.Clustered, Op2D: op, Init: init,
			RanksX: matrixNx, RanksY: 1}},
		{"blocked+offline (block size on a non-blocked scheme)", abft.Spec[float64]{
			Scheme: abft.Offline, Op2D: op, Init: init, BlockX: matrixBlock, BlockY: matrixBlock}},
		{"ranks<1", abft.Spec[float64]{
			Scheme: abft.Online, Deployment: abft.Clustered, Op2D: op, Init: init, Ranks: 0}},
		{"negative ranks", abft.Spec[float64]{
			Scheme: abft.Online, Deployment: abft.Clustered, Op2D: op, Init: init, Ranks: -2}},
		{"offline+cluster", abft.Spec[float64]{
			Scheme: abft.Offline, Deployment: abft.Clustered, Op2D: op, Init: init, Ranks: 2}},
		{"blocked+cluster", abft.Spec[float64]{
			Scheme: abft.Blocked, Deployment: abft.Clustered, Op2D: op, Init: init, Ranks: 2,
			BlockX: matrixBlock, BlockY: matrixBlock}},
		{"blocked+3D", abft.Spec[float64]{
			Scheme: abft.Blocked, Op3D: op3, Init3D: init3, BlockX: matrixBlock, BlockY: matrixBlock}},
		{"blocked without block size", abft.Spec[float64]{
			Scheme: abft.Blocked, Op2D: op, Init: init}},
		{"no operator", abft.Spec[float64]{Scheme: abft.Online}},
		{"2D op without init", abft.Spec[float64]{Scheme: abft.Online, Op2D: op}},
		{"3D op without init", abft.Spec[float64]{Scheme: abft.Online, Op3D: op3}},
		{"both dims", abft.Spec[float64]{
			Scheme: abft.Online, Op2D: op, Init: init, Op3D: op3, Init3D: init3}},
		{"unknown scheme", abft.Spec[float64]{Scheme: "quantum", Op2D: op, Init: init}},
		{"unknown deployment", abft.Spec[float64]{
			Scheme: abft.Online, Deployment: "orbital", Op2D: op, Init: init}},
		{"inject source on cluster", abft.Spec[float64]{
			Scheme: abft.Online, Deployment: abft.Clustered, Op2D: op, Init: init, Ranks: 2,
			InjectSource: abft.NewInjector[float64](nil)}},
		{"period on cluster", abft.Spec[float64]{
			Scheme: abft.Online, Deployment: abft.Clustered, Op2D: op, Init: init, Ranks: 2,
			Period: 16}},
		{"recovery on cluster", abft.Spec[float64]{
			Scheme: abft.Online, Deployment: abft.Clustered, Op2D: op, Init: init, Ranks: 2,
			Recovery: abft.ConeRecovery}},
		{"paper-exact correction on cluster", abft.Spec[float64]{
			Scheme: abft.Online, Deployment: abft.Clustered, Op2D: op, Init: init, Ranks: 2,
			PaperExactCorrection: true}},
		{"ranks on local", abft.Spec[float64]{
			Scheme: abft.Online, Op2D: op, Init: init, Ranks: 4}},
		{"rank grid on local", abft.Spec[float64]{
			Scheme: abft.Online, Op2D: op, Init: init, RanksX: 2, RanksY: 2}},
		{"transport on local", abft.Spec[float64]{
			Scheme: abft.Online, Op2D: op, Init: init,
			NewTransport: func(rx, ry int, ring bool) abft.Transport[float64] {
				return abft.NewChanTransport[float64](rx, ry, ring)
			}}},
		{"transport kind on local", abft.Spec[float64]{
			Scheme: abft.Online, Op2D: op, Init: init, Transport: abft.TransportChan}},
		{"unknown transport kind", abft.Spec[float64]{
			Scheme: abft.Online, Deployment: abft.Clustered, Op2D: op, Init: init, Ranks: 2,
			Transport: "carrier-pigeon"}},
		{"named and custom transport together", abft.Spec[float64]{
			Scheme: abft.Online, Deployment: abft.Clustered, Op2D: op, Init: init, Ranks: 2,
			Transport: abft.TransportChan,
			NewTransport: func(rx, ry int, ring bool) abft.Transport[float64] {
				return abft.NewChanTransport[float64](rx, ry, ring)
			}}},
		{"tcp without rendezvous", abft.Spec[float64]{
			Scheme: abft.Online, Deployment: abft.Clustered, Op2D: op, Init: init, Ranks: 2,
			Transport: abft.TransportTCP}},
		{"tcp rank out of range", abft.Spec[float64]{
			Scheme: abft.Online, Deployment: abft.Clustered, Op2D: op, Init: init, Ranks: 2,
			Transport: abft.TransportTCP, Rendezvous: "127.0.0.1:9", Rank: 2}},
		{"tcp on a 3-D layer cluster", abft.Spec[float64]{
			Scheme: abft.Online, Deployment: abft.Clustered, Op3D: op3, Init3D: init3, Ranks: 2,
			Transport: abft.TransportTCP, Rendezvous: "127.0.0.1:9"}},
		{"rendezvous without tcp", abft.Spec[float64]{
			Scheme: abft.Online, Deployment: abft.Clustered, Op2D: op, Init: init, Ranks: 2,
			Rendezvous: "127.0.0.1:9"}},
		{"rank without tcp", abft.Spec[float64]{
			Scheme: abft.Online, Deployment: abft.Clustered, Op2D: op, Init: init, Ranks: 2,
			Rank: 1}},
		{"rank/rendezvous on local", abft.Spec[float64]{
			Scheme: abft.Online, Op2D: op, Init: init, Rendezvous: "127.0.0.1:9"}},
		{"bind on local", abft.Spec[float64]{
			Scheme: abft.Online, Op2D: op, Init: init, Bind: "10.0.0.5:0"}},
		{"bind without tcp", abft.Spec[float64]{
			Scheme: abft.Online, Deployment: abft.Clustered, Op2D: op, Init: init, Ranks: 2,
			Bind: "10.0.0.5:0"}},
		{"conn hook without tcp", abft.Spec[float64]{
			Scheme: abft.Online, Deployment: abft.Clustered, Op2D: op, Init: init, Ranks: 2,
			WrapConn: func(c net.Conn, from, to int, d abft.Dir) net.Conn { return c }}},
		{"recv timeout on local", abft.Spec[float64]{
			Scheme: abft.Online, Op2D: op, Init: init, RecvTimeout: time.Second}},
		{"transport wrapper on local", abft.Spec[float64]{
			Scheme: abft.Online, Op2D: op, Init: init,
			WrapTransport: func(tr abft.Transport[float64], rx, ry int, ring bool) abft.Transport[float64] {
				return tr
			}}},
		{"conn hook on local", abft.Spec[float64]{
			Scheme: abft.Online, Op2D: op, Init: init,
			WrapConn: func(c net.Conn, from, to int, d abft.Dir) net.Conn { return c }}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := abft.Build(tc.spec); err == nil {
				t.Fatalf("invalid spec accepted: %+v", tc.spec)
			}
		})
	}
}

// TestParseHelpers pins the CLI string → registry key path.
func TestParseHelpers(t *testing.T) {
	for _, name := range []string{"none", "online", "offline", "blocked"} {
		s, err := abft.ParseScheme(name)
		if err != nil || string(s) != name {
			t.Fatalf("ParseScheme(%q) = %v, %v", name, s, err)
		}
	}
	if _, err := abft.ParseScheme("bogus"); err == nil {
		t.Fatal("bogus scheme parsed")
	}
	for _, name := range []string{"local", "cluster"} {
		d, err := abft.ParseDeployment(name)
		if err != nil || string(d) != name {
			t.Fatalf("ParseDeployment(%q) = %v, %v", name, d, err)
		}
	}
	if _, err := abft.ParseDeployment("bogus"); err == nil {
		t.Fatal("bogus deployment parsed")
	}
	for _, name := range []string{"chan", "tcp"} {
		k, err := abft.ParseTransport(name)
		if err != nil || string(k) != name {
			t.Fatalf("ParseTransport(%q) = %v, %v", name, k, err)
		}
	}
	if _, err := abft.ParseTransport("carrier-pigeon"); err == nil {
		t.Fatal("bogus transport parsed")
	}
}

// buildTCPHosts builds one single-rank tcp protector per rank of a 2x2
// grid, concurrently — four Build calls standing in for four OS processes
// meeting at a loopback rendezvous.
func buildTCPHosts(t *testing.T, base abft.Spec[float64], ranks int) []abft.Protector[float64] {
	t.Helper()
	// Reserve a port, free it, let rank 0's Build re-bind it. Another
	// process can steal the port in that window, so the whole bootstrap
	// retries on a fresh port — the same exposure stencilrun -launch has.
	for attempt := 0; ; attempt++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		rendezvous := ln.Addr().String()
		ln.Close()

		hosts := make([]abft.Protector[float64], ranks)
		errs := make([]error, ranks)
		var wg sync.WaitGroup
		for k := 0; k < ranks; k++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				spec := base
				spec.Transport = abft.TransportTCP
				spec.Rank = k
				spec.Rendezvous = rendezvous
				hosts[k], errs[k] = abft.Build(spec)
			}(k)
		}
		wg.Wait()
		failed := false
		for k, err := range errs {
			if err != nil {
				failed = true
				if attempt >= 2 {
					t.Fatalf("Build for tcp rank %d: %v", k, err)
				}
			}
		}
		if failed {
			for _, p := range hosts {
				if c, ok := p.(*abft.Cluster[float64]); ok {
					c.Close()
				}
			}
			t.Logf("tcp bootstrap attempt %d failed (port stolen in the handover window?); retrying", attempt)
			continue
		}
		t.Cleanup(func() {
			for _, p := range hosts {
				if c, ok := p.(*abft.Cluster[float64]); ok {
					c.Close()
				}
			}
		})
		return hosts
	}
}

// runTCPHosts advances every host by iters in lockstep (each host drives
// its own rank; the transport's barrier couples them) and returns the
// union of the gathered tiles plus the merged stats.
func runTCPHosts(t *testing.T, hosts []abft.Protector[float64], iters, nx, ny int) (*abft.Grid[float64], abft.Stats) {
	t.Helper()
	var wg sync.WaitGroup
	for _, p := range hosts {
		wg.Add(1)
		go func(p abft.Protector[float64]) {
			defer wg.Done()
			p.Run(iters)
		}(p)
	}
	wg.Wait()
	global := abft.New[float64](nx, ny)
	var merged abft.Stats
	for _, p := range hosts {
		c := p.(*abft.Cluster[float64])
		part := c.Grid()
		for _, id := range c.LocalRanks() {
			tile := c.Tile(id)
			for y := tile.Y0; y < tile.Y1; y++ {
				copy(global.Row(y)[tile.X0:tile.X1], part.Row(y)[tile.X0:tile.X1])
			}
		}
		st := p.Stats()
		st.Iterations = 0 // each host reports the same lockstep count; count it once below
		merged = merged.Merge(st)
	}
	merged.Iterations = hosts[0].Stats().Iterations
	return global, merged
}

// TestBuildTCPClusterMultiHost runs a 2x2 tcp cluster as four single-rank
// Build calls over loopback sockets and checks the union of the gathered
// tiles is bit-identical to the single-process reference — the Build-level
// version of what stencilrun -launch runs as real OS processes in CI.
func TestBuildTCPClusterMultiHost(t *testing.T) {
	const nx, ny, iters = 48, 40, 12
	op := &abft.Op2D[float64]{St: abft.Laplace5[float64](0.22), BC: abft.Mirror}
	init := abft.New[float64](nx, ny)
	init.FillFunc(func(x, y int) float64 { return float64(x*31+y*17) / 7 })

	ref, err := abft.Build(abft.Spec[float64]{Op2D: op, Init: init})
	if err != nil {
		t.Fatal(err)
	}
	ref.Run(iters)

	base := abft.Spec[float64]{
		Scheme: abft.Online, Deployment: abft.Clustered,
		Op2D: op, Init: init, RanksX: 2, RanksY: 2,
	}
	hosts := buildTCPHosts(t, base, 4)
	global, merged := runTCPHosts(t, hosts, iters, nx, ny)

	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			if global.At(x, y) != ref.Grid().At(x, y) {
				t.Fatalf("gathered grid differs from the reference at (%d,%d): %v != %v",
					x, y, global.At(x, y), ref.Grid().At(x, y))
			}
		}
	}
	if merged.HaloExchanges == 0 || merged.Verifications == 0 {
		t.Fatalf("merged stats look empty: %+v", merged)
	}
}

// TestBuildTCPClusterInjection checks a global fault plan routed by four
// independent single-rank hosts is applied exactly once cluster-wide:
// every host routes the same plan, only the owner injects, and that owner
// detects and repairs locally.
func TestBuildTCPClusterInjection(t *testing.T) {
	const nx, ny, iters = 48, 40, 12
	op := &abft.Op2D[float64]{St: abft.Laplace5[float64](0.22), BC: abft.Clamp}
	init := abft.New[float64](nx, ny)
	init.FillFunc(func(x, y int) float64 { return 100 + float64((x+y)%13) })

	base := abft.Spec[float64]{
		Scheme: abft.Online, Deployment: abft.Clustered,
		Op2D: op, Init: init, RanksX: 2, RanksY: 2,
		Detector: abft.Detector[float64]{Epsilon: 1e-9, AbsFloor: 1},
		Inject:   abft.NewPlan(abft.Injection{Iteration: 5, X: 30, Y: 10, Bit: 55}),
	}
	hosts := buildTCPHosts(t, base, 4)
	_, merged := runTCPHosts(t, hosts, iters, nx, ny)

	if merged.Detections != 1 || merged.CorrectedPoints != 1 {
		t.Fatalf("injected flip not handled exactly once across hosts: %+v", merged)
	}
	// The point (30, 10) belongs to rank 1 (top-right tile of the 2x2
	// grid); the other hosts must have stayed clean.
	for k, p := range hosts {
		st := p.Stats()
		if k == 1 && st.Detections != 1 {
			t.Fatalf("owning host missed the flip: %+v", st)
		}
		if k != 1 && st.Detections != 0 {
			t.Fatalf("non-owning host %d detected: %+v", k, st)
		}
	}
}
