package stencilabft_test

import (
	"math"
	"testing"

	abft "stencilabft"
)

// The façade tests exercise the library exactly as a downstream user
// would: through the root package only, via the Spec-driven factory.

func TestPublicQuickstartFlow(t *testing.T) {
	op := &abft.Op2D[float32]{St: abft.Laplace5[float32](0.2), BC: abft.Clamp}
	init := abft.New[float32](32, 32)
	init.FillFunc(func(x, y int) float32 { return 300 })

	p, err := abft.Build(abft.Spec[float32]{
		Scheme: abft.Online,
		Op2D:   op,
		Init:   init,
		Inject: abft.NewPlan(abft.Injection{Iteration: 5, X: 10, Y: 11, Bit: 30}),
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Run(20)
	p.Finalize()
	st := p.Stats()
	if st.Detections != 1 || st.CorrectedPoints != 1 {
		t.Fatalf("public online flow: %+v", st)
	}
	if p.Grid() == nil || p.Grid3D() != nil {
		t.Fatal("2-D protector must expose Grid and nil Grid3D")
	}
}

func TestPublicOfflineConeFlow(t *testing.T) {
	op := &abft.Op2D[float64]{St: abft.Laplace5(0.2), BC: abft.Clamp}
	init := abft.New[float64](64, 64)
	init.FillFunc(func(x, y int) float64 { return 100 + float64(x%7) })

	p, err := abft.Build(abft.Spec[float64]{
		Scheme:   abft.Offline,
		Op2D:     op,
		Init:     init,
		Period:   8,
		Recovery: abft.ConeRecovery,
		Detector: abft.Detector[float64]{Epsilon: 1e-9, AbsFloor: 1},
		Inject:   abft.NewPlan(abft.Injection{Iteration: 9, X: 30, Y: 33, Bit: 58}),
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Run(24)
	p.Finalize()
	st := p.Stats()
	if st.Detections == 0 || st.ConeRecoveries == 0 {
		t.Fatalf("public cone flow: %+v", st)
	}
}

func TestPublicClusterFlow(t *testing.T) {
	op := &abft.Op2D[float64]{St: abft.Laplace5(0.2), BC: abft.Clamp}
	init := abft.New[float64](16, 24)
	init.FillFunc(func(x, y int) float64 { return 50 + float64(y) })

	p, err := abft.Build(abft.Spec[float64]{
		Scheme:     abft.Online,
		Deployment: abft.Clustered,
		Op2D:       op,
		Init:       init,
		Ranks:      3,
		Detector:   abft.Detector[float64]{Epsilon: 1e-9, AbsFloor: 1},
		Inject:     abft.NewPlan(abft.Injection{Iteration: 4, X: 8, Y: 12, Bit: 60}),
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Run(12)
	ts := p.Stats()
	if ts.Detections == 0 || ts.CorrectedPoints == 0 {
		t.Fatalf("public cluster flow: %+v", ts)
	}
	if g := p.Grid(); g.Nx() != 16 || g.Ny() != 24 {
		t.Fatal("gathered grid shape wrong")
	}
	// The concrete type is still reachable for cluster-specific extras.
	c, ok := p.(*abft.Cluster[float64])
	if !ok {
		t.Fatalf("cluster spec built %T", p)
	}
	perRank := c.RankStats()
	if len(perRank) != 3 {
		t.Fatalf("rank stats length %d", len(perRank))
	}
	var merged abft.Stats
	for _, s := range perRank {
		merged = merged.Merge(s)
	}
	// Event counters are per-rank sums; Iterations is normalised to
	// lockstep sweeps so it compares across deployments.
	if merged.Iterations != 3*12 || ts.Iterations != 12 {
		t.Fatalf("iteration counters: merged %d, cluster %d", merged.Iterations, ts.Iterations)
	}
	merged.Iterations = ts.Iterations
	if merged != ts {
		t.Fatalf("per-rank stats do not merge to the cluster total: %+v vs %+v", merged, ts)
	}
}

func TestPublicBlockedFlow(t *testing.T) {
	op := &abft.Op2D[float64]{St: abft.Laplace5(0.2), BC: abft.Clamp}
	init := abft.New[float64](48, 48)
	init.FillFunc(func(x, y int) float64 { return 200 + float64((x*13+y)%11) })

	p, err := abft.Build(abft.Spec[float64]{
		Scheme:   abft.Blocked,
		Op2D:     op,
		Init:     init,
		BlockX:   16,
		BlockY:   16,
		Detector: abft.Detector[float64]{Epsilon: 1e-9, AbsFloor: 1},
		Inject:   abft.NewPlan(abft.Injection{Iteration: 7, X: 20, Y: 30, Bit: 58}),
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Run(16)
	st := p.Stats()
	if st.Detections == 0 || st.FlaggedBlocks == 0 || st.CorrectedPoints == 0 {
		t.Fatalf("public blocked flow: %+v", st)
	}
	// 48x48 over 16x16 tiles = 9 blocks, each compared every iteration.
	if st.Verifications != 9*16 {
		t.Fatalf("blocked verifications %d, want one per block per iteration (%d)", st.Verifications, 9*16)
	}
}

// TestBlockedOneChunkIsOnline: Online2D and Blocked2D name one type, and the
// Blocked spec whose block is the domain is the Online spec — same grid to
// the bit, same counters, a repaired flip included.
func TestBlockedOneChunkIsOnline(t *testing.T) {
	var _ *abft.Online2D[float64] = (*abft.Blocked2D[float64])(nil)
	spec := abft.Spec[float64]{
		Scheme: abft.Online,
		Op2D:   &abft.Op2D[float64]{St: abft.BoxBlur[float64](), BC: abft.Mirror},
		Init:   abft.New[float64](37, 29),
		Inject: abft.NewPlan(abft.Injection{Iteration: 5, X: 36, Y: 0, Bit: 57}),
	}
	spec.Init.FillFunc(func(x, y int) float64 { return 200 + float64((x*13+y)%11) })
	online, err := abft.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Scheme, spec.BlockX, spec.BlockY = abft.Blocked, 37, 29
	blocked, err := abft.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	online.Run(12)
	blocked.Run(12)
	if st := online.Stats(); st != blocked.Stats() || st.Detections != 1 || st.CorrectedPoints != 1 || st.FlaggedBlocks != 0 {
		t.Fatalf("online %+v, one-chunk blocked %+v", st, blocked.Stats())
	}
	for i, v := range online.Grid().Data() {
		if math.Float64bits(v) != math.Float64bits(blocked.Grid().Data()[i]) {
			t.Fatalf("cell %d: online %v, one-chunk blocked %v", i, v, blocked.Grid().Data()[i])
		}
	}
}

func TestPublicCustomStencil(t *testing.T) {
	st := abft.NewStencil("mine",
		abft.Point[float32]{DX: 0, DY: 0, W: 0.5},
		abft.Point[float32]{DX: -1, DY: 0, W: 0.5},
	)
	if err := st.Validate(); err != nil {
		t.Fatal(err)
	}
	op := &abft.Op2D[float32]{St: st, BC: abft.Zero}
	init := abft.New[float32](8, 8)
	init.Fill(2)
	p, err := abft.Build(abft.Spec[float32]{Op2D: op, Init: init}) // zero Scheme = None
	if err != nil {
		t.Fatal(err)
	}
	p.Run(3)
	if p.Iter() != 3 {
		t.Fatal("iterations not counted")
	}
}

func TestPublic3DFlow(t *testing.T) {
	st := abft.SevenPoint3D[float32](0.4, 0.1, 0.1, 0.1, 0.1, 0.05, 0.15)
	op := &abft.Op3D[float32]{St: st, BC: abft.Clamp}
	init := abft.New3D[float32](12, 12, 4)
	init.Fill(100)
	p, err := abft.Build(abft.Spec[float32]{
		Scheme: abft.Offline,
		Op3D:   op,
		Init3D: init,
		Period: 4,
		Pool:   abft.NewPool(),
		Inject: abft.NewPlan(abft.Injection{Iteration: 3, X: 5, Y: 6, Z: 2, Bit: 30}),
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Run(12)
	p.Finalize()
	st2 := p.Stats()
	if st2.Detections == 0 || st2.Rollbacks == 0 {
		t.Fatalf("public 3-D offline flow: %+v", st2)
	}
	if p.Grid3D() == nil || p.Grid() != nil {
		t.Fatal("3-D protector must expose Grid3D and nil Grid")
	}
}

// TestBuildPathPinsLegacyContract pins the contract the removed per-scheme
// constructors (NewOnline2D, NewCluster, ...) used to carry, now stated
// directly against Build: the factory returns the matching concrete type,
// the configured injection is applied, and a band cluster's gather is
// bit-identical to the local run of the same operator — exactly what the
// wrappers' delegation to Build guaranteed before their deletion.
func TestBuildPathPinsLegacyContract(t *testing.T) {
	op := &abft.Op2D[float32]{St: abft.Laplace5[float32](0.2), BC: abft.Clamp}
	init := abft.New[float32](32, 32)
	init.Fill(300)

	plan := abft.NewPlan(abft.Injection{Iteration: 5, X: 10, Y: 11, Bit: 30})
	p, err := abft.Build(abft.Spec[float32]{
		Scheme: abft.Online, Op2D: op, Init: init,
		InjectSource: abft.NewInjector[float32](plan),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.(*abft.Online2D[float32]); !ok {
		t.Fatalf("online spec built %T, want *Online2D", p)
	}
	p.Run(20)
	if st := p.Stats(); st.Detections != 1 || st.CorrectedPoints != 1 {
		t.Fatalf("online Build path: %+v", st)
	}

	c, err := abft.Build(abft.Spec[float32]{
		Scheme: abft.Online, Deployment: abft.Clustered,
		Op2D: op, Init: init, Ranks: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.(*abft.Cluster[float32]); !ok {
		t.Fatalf("cluster spec built %T, want *Cluster", c)
	}
	c.Run(4)
	if c.Iter() != 4 {
		t.Fatalf("cluster Build path: iter %d", c.Iter())
	}

	// Error-free band cluster gathers bit-identical to the local reference.
	ref, err := abft.Build(abft.Spec[float32]{Scheme: abft.Online, Op2D: op, Init: init})
	if err != nil {
		t.Fatal(err)
	}
	ref.Run(4)
	got, want := c.Grid().Data(), ref.Grid().Data()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cluster gather diverges from local reference at %d: %v != %v", i, got[i], want[i])
		}
	}
}
