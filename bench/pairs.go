package main

import (
	"fmt"
	"runtime"
	"time"

	abft "stencilabft"
)

// check says how a runner's domain is compared after each repetition with
// the domain of the workload's first (reference) runner, which advanced the
// same number of sweeps from the same initial grid.
type check int

const (
	checkExact  check = iota // bit-identical, and the run reports no detection
	checkRepair              // injected run: every flip detected and repaired in place, result within faultTolerance
	checkReplay              // injected run: detected, rolled back, recomputed; bit-identical
	checkNone                // the pacer: not part of the program under test
)

// faultTolerance is how far (max |diff| / max |value|) an online run that
// repaired its injected flips may end from the fault-free run: the
// algebraic correction leaves a rounding-sized residual, nothing more.
const faultTolerance = 1e-4

// runner is one long-lived variant of a workload. It is built once, warmed
// with one untimed repetition and then advanced in lockstep with its
// siblings, so every timed number is steady state: plans cached, rank
// goroutines parked, sockets connected.
type runner[T abft.Float] struct {
	role     string
	build    func() (abft.Protector[T], func(), error)
	check    check
	untraced bool // keep this runner span-free even in the traced run
	flips    int  // injected flips per repetition (checkRepair / checkReplay)

	p abft.Protector[T]

	times  [][]float64 // seconds, per timed repetition and sweep; Finalize() counts into the last sweep
	covers []float64   // traced: share of each repetition's run spans that its step spans cover
	allocs float64     // heap allocations per sweep
	data   []T         // domain after the latest repetition
	stats  abft.Stats
	before abft.Stats // stats before the latest repetition

	// the repetition in progress
	tr             *tracer
	trace          int
	pos            []float64
	runNs, stepsNs int64
}

// beginRep opens a repetition of iters sweeps.
func (r *runner[T]) beginRep(tr *tracer, iters int) {
	if r.untraced {
		tr = nil
	}
	r.tr = tr
	r.trace = tr.newTrace()
	r.pos = make([]float64, iters)
	r.runNs, r.stepsNs = 0, 0
}

// turn advances the runner sweeps lo..hi-1 of the repetition, one Step() at
// a time, timing each. The recorder's own calls count into a traced sweep.
// A turn is a root span of its own (runners interleave, so a span around
// the whole repetition would mostly cover its siblings' turns).
func (r *runner[T]) turn(lo, hi int) {
	turnStart := time.Now()
	run := r.tr.begin("run:"+r.role, -1, r.trace)
	for i := lo; i < hi; i++ {
		t0 := time.Now()
		s := r.tr.begin("step", run, r.trace)
		r.p.Step()
		r.tr.end(s)
		d := time.Since(t0)
		r.pos[i] = d.Seconds()
		r.stepsNs += int64(d)
	}
	r.tr.end(run)
	r.runNs += int64(time.Since(turnStart))
}

// endRep closes the repetition: Finalize() (its time counts into the last
// sweep), then the gather and the stats read, which are spans of their own
// and not part of the operation.
func (r *runner[T]) endRep(record bool) {
	root := r.tr.begin("finish:"+r.role, -1, r.trace)
	f := r.tr.begin("finalize", root, r.trace)
	t0 := time.Now()
	r.p.Finalize()
	r.pos[len(r.pos)-1] += time.Since(t0).Seconds()
	r.tr.end(f)
	g := r.tr.begin("gather", root, r.trace)
	r.data = gridData(r.p)
	r.tr.end(g)
	s := r.tr.begin("stats", root, r.trace)
	r.before, r.stats = r.stats, r.p.Stats()
	r.tr.end(s)
	r.tr.end(root)
	if record {
		r.times = append(r.times, r.pos)
		if r.tr != nil {
			r.covers = append(r.covers, float64(r.stepsNs)/float64(r.runNs))
		}
	}
}

// opTime is the runner's raw time for one operation — stopwatch seconds,
// for the traced run's layer metrics — with the host's interference taken
// out as far as one run can: the sum over sweep positions of the first quartile,
// across repetitions, of the time of the sweep at that position. The shared
// hosts this runs on slow a sweep down — a co-tenant on the sibling
// hyperthread, a stolen time slice — far more often than anything speeds
// one up, so the plain time of a repetition sums whatever interference hit
// any of its sweeps, and its median or mean moves 5–7 % from run to run
// where this moves 1–2 %. One sweep is short enough that a quarter of the
// repetitions see it clean. Costs that recur at fixed positions (an offline
// verification every 16th sweep, a checkpoint, an injected flip and its
// repair) stay in, because each position keeps its own quartile. The
// sample's quartiles are those of the plain per-repetition sums, so they
// show the interference the value leaves out.
func (r *runner[T]) opTime() sample {
	if len(r.times) == 0 {
		return sample{}
	}
	sums := make([]float64, len(r.times))
	for rep, row := range r.times {
		for _, t := range row {
			sums[rep] += t
		}
	}
	s := summarize(sums)
	s.Value = 0
	col := make([]float64, len(r.times))
	for pos := range r.times[0] {
		for rep := range r.times {
			col[rep] = r.times[rep][pos]
		}
		s.Value += percentile(col, 25)
	}
	return s
}

// pairedRatio compares two runners advanced in the same lockstep: how many
// times longer an operation takes on a than on b. Sweep i of repetition r
// ran on both within one turn (a few milliseconds) of each other, under the
// same host conditions, so their ratio is free of the drift that moves
// both; the median over repetitions of that ratio, per sweep position, is
// free of the bursts that hit one side. Positions are then combined
// weighted by b's time there, which keeps costs that recur at fixed
// positions (an offline verification every 16th sweep, a checkpoint, an
// injected flip and its repair) at their true weight. Quartiles come from
// the same construction on the position quartiles.
func pairedRatio[T abft.Float](a, b *runner[T]) sample {
	reps := min(len(a.times), len(b.times))
	if reps == 0 {
		return sample{}
	}
	var out sample
	var weight float64
	col := make([]float64, reps)
	for pos := range b.times[0] {
		var w float64
		for rep := 0; rep < reps; rep++ {
			col[rep] = a.times[rep][pos] / b.times[rep][pos]
			w += b.times[rep][pos]
		}
		q := summarize(col)
		out.Value += w * q.Value
		out.Q1 += w * q.Q1
		out.Q3 += w * q.Q3
		weight += w
	}
	return sample{Value: out.Value / weight, Q1: out.Q1 / weight, Q3: out.Q3 / weight, N: reps}
}

// stepTimes flattens the per-sweep times to nanoseconds.
func (r *runner[T]) stepTimes() []float64 {
	var out []float64
	for _, row := range r.times {
		for _, t := range row {
			out = append(out, t*1e9)
		}
	}
	return out
}

// verify applies the runner's check against the reference domain and
// returns a reason when it fails.
func (r *runner[T]) verify(ref []T) error {
	det := r.stats.Detections - r.before.Detections
	switch r.check {
	case checkExact:
		if det != 0 {
			return fmt.Errorf("%s: %d detection(s) in a fault-free repetition", r.role, det)
		}
		if !sameBits(r.data, ref) {
			return fmt.Errorf("%s: domain not bit-identical to the reference run (max rel diff %.3g)", r.role, relDiff(r.data, ref))
		}
	case checkRepair:
		fixed := r.stats.CorrectedPoints - r.before.CorrectedPoints
		if det != r.flips || fixed != r.flips {
			return fmt.Errorf("%s: %d flips injected, %d detected, %d repaired", r.role, r.flips, det, fixed)
		}
		if d := relDiff(r.data, ref); d > faultTolerance {
			return fmt.Errorf("%s: repaired domain off by %.3g relative (tolerance %.0e)", r.role, d, faultTolerance)
		}
	case checkReplay:
		if det == 0 || r.stats.Rollbacks == r.before.Rollbacks {
			return fmt.Errorf("%s: %d flips injected, %d detection(s), no rollback", r.role, r.flips, det)
		}
		if !sameBits(r.data, ref) {
			return fmt.Errorf("%s: domain after rollback not bit-identical to the fault-free run", r.role)
		}
	}
	return nil
}

// maxReps bounds the repetitions of one run; injected plans are generated
// for this many.
const maxReps = 128

// runLockstep builds every runner, warms each with one untimed repetition,
// then runs timed repetitions until the deadline (at least minReps). Within
// a repetition the runners take turns of `turn` sweeps each — A B A B … —
// in an order that reverses from one repetition to the next, so the same
// sweep runs on every runner within a few milliseconds; a collection
// precedes each repetition. After each repetition every runner is checked
// against runners[0]. Each runner × repetition is one operation. In the
// traced run a last, untimed pass counts each runner's heap allocations.
func runLockstep[T abft.Float](cfg *config, res *result, runners []*runner[T], iters, turn, minReps int, deadline time.Time) error {
	for _, r := range runners {
		b := cfg.tr.begin("build:"+r.role, -1, 0)
		p, closeFn, err := r.build()
		cfg.tr.end(b)
		if err != nil {
			return fmt.Errorf("build %s: %w", r.role, err)
		}
		r.p = p
		defer func() {
			c := cfg.tr.begin("close:"+r.role, -1, 0)
			closeFn()
			cfg.tr.end(c)
		}()
	}
	reversed := make([]*runner[T], len(runners))
	for i, r := range runners {
		reversed[len(runners)-1-i] = r
	}
	repetition := func(tr *tracer, rep int, record bool) {
		order := runners
		if rep%2 == 1 {
			order = reversed
		}
		runtime.GC()
		for _, r := range order {
			r.beginRep(tr, iters)
		}
		for lo := 0; lo < iters; lo += turn {
			for _, r := range order {
				r.turn(lo, min(lo+turn, iters))
			}
		}
		for _, r := range order {
			r.endRep(record)
		}
		for _, r := range runners {
			err := r.verify(runners[0].data)
			if record {
				res.op(err == nil, "%v", err)
			} else if err != nil {
				res.fail("warm-up: %v", err)
			}
		}
	}
	repetition(nil, 0, false)

	var lastRep time.Duration
	for rep := 0; rep < maxReps-2; rep++ {
		if rep >= minReps && time.Now().Add(lastRep).After(deadline) {
			break
		}
		repStart := time.Now()
		repetition(cfg.tr, rep, true)
		lastRep = time.Since(repStart)
	}

	if cfg.trace {
		for _, r := range runners {
			r.allocs = mallocsPer(iters, r.p.Step)
		}
	}
	return nil
}

// byRole indexes runners for the metric derivations.
func byRole[T abft.Float](runners []*runner[T]) map[string]*runner[T] {
	m := make(map[string]*runner[T], len(runners))
	for _, r := range runners {
		m[r.role] = r
	}
	return m
}

// ratioOf is pairedRatio by role name; the zero sample when either role is
// absent from the workload.
func ratioOf[T abft.Float](m map[string]*runner[T], num, den string) sample {
	a, b := m[num], m[den]
	if a == nil || b == nil {
		return sample{}
	}
	return pairedRatio(a, b)
}

// setup_s is taken over at least setupCycles fresh cycles, more while they
// fit in setupBudget, at most maxSetupCycles.
const (
	setupCycles    = 25
	maxSetupCycles = 201
	setupBudget    = 300 * time.Millisecond
)

// liveHeap returns the bytes of reachable heap objects. It collects twice:
// the first collection only moves sync.Pool contents to their victim cache,
// the second frees them, and how full the pools are is an accident of timing.
func liveHeap() float64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// measureSetup times fresh build-until-ready cycles, each followed by an
// untimed Close and by one sweep of a pacer sized to the problem. It returns
// the set-up time at the reference pace (the median over cycles of build
// time over pacer time, scaled), the raw build times (first quartile, like
// every raw time here) and, from one extra cycle, the live heap the built
// runner holds.
func measureSetup[T abft.Float](cfg *config, build func() (abft.Protector[T], func(), error), pb *problem[T]) (setup, raw sample, memMB float64, err error) {
	before := liveHeap()
	p, closeFn, err := build()
	if err != nil {
		return sample{}, sample{}, 0, err
	}
	memMB = (liveHeap() - before) / 1e6
	runtime.KeepAlive(p)
	closeFn()

	pace := newPacer[T](pb.cells())
	pace.Step()
	var times, paced []float64
	err = cfg.setupLoop(func() error {
		runtime.GC()
		t0 := time.Now()
		_, closeFn, err := build()
		d := time.Since(t0)
		if err != nil {
			return err
		}
		closeFn()
		t0 = time.Now()
		pace.Step()
		times = append(times, d.Seconds())
		paced = append(paced, d.Seconds()/time.Since(t0).Seconds())
		return nil
	})
	if err != nil {
		return sample{}, sample{}, 0, err
	}
	return atReferencePace(summarize(paced), pace.cells(), 1, pb.paceNs), firstQuartile(times), memMB, nil
}
