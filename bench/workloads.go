package main

import (
	"fmt"
	"math/rand"

	abft "stencilabft"
	"stencilabft/internal/resilience"
	"stencilabft/internal/telemetry"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	run  func(cfg *config, res *result) error
}

// workloads lists the eight workloads in the order the suite runs them.
// BENCHMARK.json repeats the names and reasons.
var workloads = []workload{
	{"local2d", "plain one-thread 2-D baseline (1024x1024 float32 star5): stencil kernel and 2-D checksum interpolation do all the work, dist and serve none", runLocal2D},
	{"tile_large", "the paper's HotSpot3D at its large tile (512x512x8) on a pool of 2: 3-D star7 kernel and row-partitioned pool dominate, verify cost amortised over 2M cells", runTileLarge},
	{"tile_small", "the paper's small tile (64x64x8): 32k cells a step, so the fixed per-step cost of core/checksum dominates and the kernel does little", runTileSmall},
	{"cluster_chan", "dist tile engine on 2 ranks with the free in-process transport: overlap schedule, strided x-halo pack/unpack, barrier; telemetry and buddy checkpoints priced in the traced run", runClusterChan},
	{"cluster_tcp", "same spec and bytes over real loopback sockets: run_s minus cluster_chan's is the framing + CRC + socket + writer-goroutine tax", runClusterTCP},
	{"faults", "512x512 box9 with 16 seeded bit flips a repetition: the verify layer used the other way (locate, correct; rollback in the traced run), so a faster fault-free path that slows repair shows", runFaults},
	{"serve_small", "32x24 jobs through stencilserve, 2 closed-loop clients: compute is microseconds, so this is HTTP + WireSpec canonicalisation + scheduler queue + worker protocol and nothing else", runServeSmall},
	{"serve_grid", "256x256 jobs through stencilserve: grid JSON encoding worker to scheduler to client dominates; a binary grid codec must move this and leave serve_small alone", runServeGrid},
}

// offlinePeriod is the offline scheme's detection/checkpoint period, and
// buddyPeriod the buddy checkpoint period: the paper's Table 1 value and
// the resilience layer's drill default.
const (
	offlinePeriod = 16
	buddyPeriod   = 16
)

// localBuild returns the constructor of a local runner of pb.
func localBuild[T abft.Float](pb *problem[T], scheme abft.Scheme, pool *abft.Pool, plan *abft.Plan) func() (abft.Protector[T], func(), error) {
	return func() (abft.Protector[T], func(), error) {
		spec := pb.spec(scheme)
		spec.Pool, spec.Inject = pool, plan
		if scheme == abft.Offline {
			spec.Period = offlinePeriod
		}
		p, err := abft.Build(spec)
		return p, func() {}, err
	}
}

// clusterVariant builds the 2x1 rank-grid deployment of a 2-D problem and
// keeps handles on the add-ons of its latest build for the layer metrics.
type clusterVariant[T abft.Float] struct {
	pb                   *problem[T]
	tcp, telemetry, ckpt bool

	tel   *abft.Telemetry
	buddy *resilience.Buddy[T]
}

func (v *clusterVariant[T]) build() (abft.Protector[T], func(), error) {
	spec := v.pb.spec(abft.Online)
	spec.Deployment = abft.Clustered
	spec.RanksX, spec.RanksY, spec.HaloDepth = 2, 1, 1
	var tr interface{ Close() error }
	if v.tcp {
		// All ranks in this process; halos cross real loopback sockets.
		t, err := abft.NewTCPTransport[T](abft.TCPConfig{RanksX: 2, RanksY: 1})
		if err != nil {
			return nil, nil, err
		}
		tr = t
		spec.NewTransport = func(int, int, bool) abft.Transport[T] { return t }
	}
	if v.telemetry {
		v.tel = abft.NewTelemetry(0)
		spec.Telemetry = v.tel
	}
	if v.ckpt {
		v.buddy = resilience.NewBuddy[T](buddyPeriod, nil)
		spec.AfterStep = v.buddy.AfterStep
	}
	p, err := abft.Build(spec)
	if err != nil {
		if tr != nil {
			tr.Close()
		}
		return nil, nil, err
	}
	cl := p.(*abft.Cluster[T])
	if v.ckpt {
		if err := v.buddy.Attach(cl); err != nil {
			cl.Close()
			return nil, nil, err
		}
	}
	return p, func() { cl.Close() }, nil
}

// faultPlan schedules flips per repetition for maxReps repetitions of iters
// sweeps. A repetition is cut into as many windows as it has flips and each
// window gets one, at an offset drawn once per run: every repetition is hit
// at the same sweeps (so each position of the operation costs the same from
// one repetition to the next), at a fresh seeded cell, in a bit of 20..30 —
// a high fraction bit or an exponent bit of float32, so every flip moves
// its row checksum well past the detector threshold. The offset falls in
// the first half of its window: the algebraic repair leaves the rounding
// error of one float32 line checksum (up to ~5e-4 of the value) in the
// repaired cell, which the following sweeps spread out, so a flip in the
// last sweep of a repetition would be compared against faultTolerance
// before a single sweep had run over it, and exceed it.
func faultPlan(seed int64, nx, ny, iters, flips int) *abft.Plan {
	rng := rand.New(rand.NewSource(seed))
	window := iters / flips
	offsets := make([]int, flips)
	for w := range offsets {
		offsets[w] = w*window + rng.Intn(max(1, window/2))
	}
	var injs []abft.Injection
	for rep := 0; rep < maxReps; rep++ {
		for _, off := range offsets {
			injs = append(injs, abft.Injection{
				Iteration: rep*iters + off,
				X:         rng.Intn(nx), Y: rng.Intn(ny),
				Bit: 20 + rng.Intn(11),
			})
		}
	}
	return abft.NewPlan(injs...)
}

// twin returns an untraced copy of a runner definition: the traced run
// advances it beside the traced original, which prices the recorder.
func twin[T abft.Float](r *runner[T]) *runner[T] {
	return &runner[T]{role: r.role + "_untraced", build: r.build, check: r.check, flips: r.flips, untraced: true}
}

// pairWorkload runs a workload whose operations are repetitions of
// long-lived runners. The untraced run advances only base and prot — the
// pair behind run_s, base_s and ratio. The traced run advances every runner
// in all (which contains base and prot) plus prot's untraced twin.
func pairWorkload[T abft.Float](cfg *config, res *result, pb *problem[T], base, prot *runner[T], all []*runner[T]) (map[string]*runner[T], error) {
	setup, _, memMB, err := measureSetup(cfg, prot.build, pb)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	if err := pb.checkAgainstReference(); err != nil {
		res.fail("%v", err)
	}
	pace := &runner[T]{role: "pacer", check: checkNone, build: func() (abft.Protector[T], func(), error) {
		return newPacer[T](pb.cells()), func() {}, nil
	}}
	runners := []*runner[T]{base, prot, pace}
	deadline := cfg.deadline(1)
	if cfg.trace {
		runners = nil
		for _, r := range all {
			runners = append(runners, r)
			if r == prot {
				runners = append(runners, twin(prot)) // next to its original, under the same host conditions
			}
		}
		deadline = cfg.deadline(0.7)
	}
	if err := runLockstep(cfg, res, runners, pb.iters, pb.turn, cfg.minReps(), deadline); err != nil {
		return nil, err
	}
	m := byRole(runners)
	if !cfg.trace {
		// Absolute times are reported against the pacer that took turns
		// with the runners; see pacer.go.
		cells := pace.p.(*pacer[T]).cells()
		res.set("run_s", atReferencePace(pairedRatio(prot, pace), cells, pb.iters, pb.paceNs))
		res.set("base_s", atReferencePace(pairedRatio(base, pace), cells, pb.iters, pb.paceNs))
		res.set("ratio", pairedRatio(prot, base))
		res.set("setup_s", setup)
		res.set("mem_mb", exact(memMB))
		return m, nil
	}

	stepsOf := func(role string) sample { return summarize(m[role].stepTimes()) }
	res.set("core.step_none_ns", stepsOf("none"))
	res.set("core.step_online_ns", stepsOf("online"))
	res.set("core.step_offline_ns", stepsOf("offline"))
	if none, online := res.Metrics["core.step_none_ns"].Value, res.Metrics["core.step_online_ns"].Value; online > 0 {
		res.set("core.verify_share", exact(1-none/online))
	}
	res.set("core.abft_ratio", ratioOf(m, "online", "none"))
	res.set("core.offline_ratio", ratioOf(m, "offline", "none"))
	res.set("core.fault_ratio", ratioOf(m, "online_faulty", "online"))
	res.set("core.rollback_ratio", ratioOf(m, "offline_faulty", "offline"))
	_, coreBuild, _, err := measureSetup(cfg, m["online"].build, pb)
	if err != nil {
		return nil, err
	}
	res.set("core.build_ns", coreBuild.scaled(1e9))
	res.set("core.allocs_per_step", exact(m["online"].allocs))

	// Counters are per repetition, so they repeat exactly for a seed
	// however many repetitions fit in the run. Injected runners report
	// what they found; fault-free ones must report nothing.
	var falsePos, det, fixed, rollbacks, recomputed float64
	for _, r := range runners {
		reps := float64(len(r.times) + 1) // + the warm-up repetition
		if r.untraced {
			continue // the twin repeats its original's counts
		}
		if r.check == checkExact {
			falsePos += float64(r.stats.Detections)
			continue
		}
		det += float64(r.stats.Detections) / reps
		fixed += float64(r.stats.CorrectedPoints) / reps
		rollbacks += float64(r.stats.Rollbacks) / reps
		recomputed += float64(r.stats.RecomputedIters) / reps
	}
	res.set("core.false_positives", exact(falsePos))
	res.set("core.detections", exact(det))
	res.set("core.corrected_points", exact(fixed))
	res.set("core.rollbacks", exact(rollbacks))
	res.set("core.recomputed_iters", exact(recomputed))

	// The recorder's price: the traced runner against its untraced twin,
	// and how much of a run its step spans account for.
	res.set("bench.trace_overhead_frac", exact(ratioOf(m, prot.role, prot.role+"_untraced").Value-1))
	res.set("bench.step_cover_frac", summarize(prot.covers))

	probeKernel(cfg, res, pb, cfg.budget(0.15))
	if err := probeChecksum(cfg, res, pb, cfg.budget(0.15)); err != nil {
		return nil, err
	}
	return m, nil
}

// localWorkload is the shared body of the fault-free local workloads:
// none against online, plus offline in the traced run.
func localWorkload[T abft.Float](cfg *config, res *result, pb *problem[T], pool *abft.Pool) error {
	none, online, offline := localTrio(pb, pool)
	_, err := pairWorkload(cfg, res, pb, none, online, []*runner[T]{none, online, offline})
	return err
}

// localTrio returns the three fault-free local runners every workload's
// traced run advances: none, online and offline(16).
func localTrio[T abft.Float](pb *problem[T], pool *abft.Pool) (none, online, offline *runner[T]) {
	return &runner[T]{role: "none", build: localBuild(pb, abft.None, pool, nil)},
		&runner[T]{role: "online", build: localBuild(pb, abft.Online, pool, nil)},
		&runner[T]{role: "offline", build: localBuild(pb, abft.Offline, pool, nil)}
}

func runLocal2D(cfg *config, res *result) error {
	n, iters := 1024, 64
	if cfg.quick {
		n, iters = 48, 4
	}
	pb := uniform2D(cfg.seed, n, n, iters, abft.Laplace5[float32](0.2))
	pb.turn, pb.paceNs = 4, 1.57
	return localWorkload(cfg, res, pb, nil)
}

func runTile(cfg *config, res *result, nx, ny, nz, iters, turn int, paceNs float64, pool *abft.Pool) error {
	pb, modelTime, err := hotspot3D(cfg.seed, nx, ny, nz, iters)
	if err != nil {
		return err
	}
	pb.turn, pb.paceNs = turn, paceNs
	if cfg.trace {
		res.set("hotspot.model_ns", exact(float64(modelTime)))
	}
	return localWorkload(cfg, res, pb, pool)
}

func runTileLarge(cfg *config, res *result) error {
	pool := &abft.Pool{Workers: 2}
	defer pool.Close()
	if cfg.quick {
		return runTile(cfg, res, 32, 32, 4, 4, 1, 1.3, pool)
	}
	return runTile(cfg, res, 512, 512, 8, 16, 1, 2.0, pool)
}

func runTileSmall(cfg *config, res *result) error {
	if cfg.quick {
		return runTile(cfg, res, 16, 16, 4, 8, 4, 1.3, nil)
	}
	return runTile(cfg, res, 64, 64, 8, 512, 16, 1.3, nil)
}

func runFaults(cfg *config, res *result) error {
	n, iters, flips := 512, 256, 16
	if cfg.quick {
		n, iters, flips = 48, 32, 2
	}
	pb := uniform2D(cfg.seed, n, n, iters, abft.BoxBlur[float32]())
	pb.turn, pb.paceNs = 8, 1.45
	plan := faultPlan(cfg.seed+1, n, n, iters, flips)
	none, online, offline := localTrio(pb, nil)
	onlineFaulty := &runner[float32]{role: "online_faulty", build: localBuild(pb, abft.Online, nil, plan), check: checkRepair, flips: flips}
	offlineFaulty := &runner[float32]{role: "offline_faulty", build: localBuild(pb, abft.Offline, nil, plan), check: checkReplay, flips: flips}
	_, err := pairWorkload(cfg, res, pb, online, onlineFaulty,
		[]*runner[float32]{none, online, offline, onlineFaulty, offlineFaulty})
	return err
}

func runClusterChan(cfg *config, res *result) error { return runCluster(cfg, res, false) }
func runClusterTCP(cfg *config, res *result) error  { return runCluster(cfg, res, true) }

// runCluster is the shared body of the two cluster workloads: the one-thread
// local online run of the global problem against the 2-rank cluster, plus
// (traced) the cluster with telemetry on and, on the channel transport, with
// buddy checkpoints.
func runCluster(cfg *config, res *result, tcp bool) error {
	n, iters := 1024, 64
	if cfg.quick {
		n, iters = 64, 16
	}
	pb := uniform2D(cfg.seed, n, n, iters, abft.Laplace5[float64](0.2))
	pb.turn, pb.paceNs = 4, 1.7
	plain := &clusterVariant[float64]{pb: pb, tcp: tcp}
	withTel := &clusterVariant[float64]{pb: pb, tcp: tcp, telemetry: true}
	withCkpt := &clusterVariant[float64]{pb: pb, tcp: tcp, ckpt: true}

	none, online, offline := localTrio(pb, nil)
	cluster := &runner[float64]{role: "cluster", build: plain.build}
	all := []*runner[float64]{none, online, offline, cluster, {role: "cluster_tel", build: withTel.build}}
	if !tcp {
		all = append(all, &runner[float64]{role: "cluster_ckpt", build: withCkpt.build})
	}
	m, err := pairWorkload(cfg, res, pb, online, cluster, all)
	if err != nil || !cfg.trace {
		return err
	}

	spans := cfg.tr.snapshot()
	res.set("dist.step_ns", summarize(cluster.stepTimes()))
	res.set("dist.gather_ns", summarize(durationsOf(spans, "gather", "finish:cluster")))
	_, distBuild, _, err := measureSetup(cfg, cluster.build, pb)
	if err != nil {
		return err
	}
	res.set("dist.build_ns", distBuild.scaled(1e9))
	res.set("dist.allocs_per_step", exact(cluster.allocs))
	res.set("dist.speedup", ratioOf(m, "online", "cluster"))
	res.set("dist.telemetry_ratio", ratioOf(m, "cluster_tel", "cluster"))

	// Runner stats were read after the last timed repetition; the add-ons'
	// own counters below are read now, after the allocation-count pass too.
	steps := float64((len(cluster.times) + 1) * iters)
	st := cluster.stats
	var msgs int
	for _, c := range st.HaloByDir {
		msgs += c
	}
	res.set("dist.halo_msgs_per_step", exact(float64(msgs)/steps))
	res.set("dist.halo_bytes_per_step", exact(float64(st.Transport.BytesSent)/steps))
	res.set("dist.tcp_reconnects", exact(float64(st.Transport.Reconnects)))
	res.set("dist.tcp_resends", exact(float64(st.Transport.Resends)))
	res.set("dist.tcp_crc_errors", exact(float64(st.Transport.CrcErrors)))
	if st.Transport.Reconnects+st.Transport.Resends+st.Transport.CrcErrors != 0 {
		res.fail("transport healed a fault on a fault-free run: %+v", st.Transport)
	}

	// The program's own phase timers, on only in the cluster_tel runner.
	tm := m["cluster_tel"].stats.Timing
	total := float64(tm.PackNs + tm.SendNs + tm.RecvWaitNs + tm.UnpackNs + tm.SweepNs + tm.VerifyNs +
		tm.RepairNs + tm.BarrierNs + tm.InteriorSweepNs + tm.BoundaryWaitNs + tm.BoundarySweepNs)
	if total > 0 {
		res.set("dist.interior_sweep_share", exact(float64(tm.InteriorSweepNs)/total))
		res.set("dist.boundary_wait_share", exact(float64(tm.BoundaryWaitNs+tm.RecvWaitNs)/total))
		res.set("dist.boundary_sweep_share", exact(float64(tm.BoundarySweepNs+tm.SweepNs)/total))
		res.set("dist.verify_share", exact(float64(tm.VerifyNs)/total))
		res.set("dist.barrier_share", exact(float64(tm.BarrierNs)/total))
		res.set("dist.pack_unpack_share", exact(float64(tm.PackNs+tm.SendNs+tm.UnpackNs)/total))
	}
	if _, skew, ok := tm.Straggler(); ok {
		res.set("dist.straggler_max_over_mean", exact(skew))
	}
	var recorded, dropped int64
	for _, rec := range withTel.tel.Recorders() {
		dropped += rec.Dropped()
		for p := telemetry.Phase(0); p < telemetry.NumPhases; p++ {
			recorded += rec.PhaseCount(p)
		}
	}
	telSteps := float64((len(m["cluster_tel"].times) + 2) * iters * 2) // warm-up and allocation pass included; per rank
	res.set("telemetry.spans_per_step", exact(float64(recorded)/telSteps))
	res.set("telemetry.dropped", exact(float64(dropped)))

	if ck := m["cluster_ckpt"]; ck != nil {
		bs := withCkpt.buddy.Stats()
		reps := float64(len(ck.times) + 2) // + the warm-up and the allocation-count pass
		res.set("resilience.ckpt_ratio", ratioOf(m, "cluster_ckpt", "cluster"))
		res.set("resilience.ckpt_saves", exact(float64(bs.Saves)/reps))
		if bs.Saves > 0 {
			res.set("resilience.ckpt_bytes_per_save", exact(float64(bs.PointsCopied)*8/float64(bs.Saves))) // float64 points
			extra := (ck.opTime().Value - cluster.opTime().Value) * 1e9
			res.set("resilience.ckpt_ns_per_save", exact(extra/(float64(bs.Saves)/reps)))
		} else {
			res.fail("no buddy checkpoint was saved")
		}
	}

	probeTelemetry(cfg, res, cfg.budget(0.02))
	probeWire(cfg, res, cfg.budget(0.03))
	var tr abft.Transport[float64]
	if tcp {
		t, err := abft.NewTCPTransport[float64](abft.TCPConfig{RanksX: 2, RanksY: 1})
		if err != nil {
			return err
		}
		defer t.Close()
		tr = t
	} else {
		tr = abft.NewChanTransport[float64](2, 1, false)
	}
	probeTransport(cfg, res, tr, n, cfg.budget(0.05))
	return nil
}
