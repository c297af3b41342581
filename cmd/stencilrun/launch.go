package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

	abft "stencilabft"
	"stencilabft/internal/chaos"
	"stencilabft/internal/dist"
	"stencilabft/internal/metrics"
	"stencilabft/internal/resilience"
	"stencilabft/internal/serve"
	"stencilabft/internal/telemetry"
)

// The -launch parent: fork one pool-worker process per rank of the grid
// (this binary under -worker), send each the flags' document with its
// placement, and read typed events back — checkpoint progress, then the
// rank's stats, tile and trace. It gathers them and verifies the run:
// bit-identical to an in-process single-process reference when error-free,
// detected-and-repaired under -inject. Any child failure or verification
// miss is a non-zero exit, which is what the CI multiprocess job gates on.

// launchWorkers starts rank k's worker: this binary in its -worker role.
// Profiles are per-process by nature; each child gets the parent's paths
// with a rank suffix so they don't clobber one file.
func launchWorkers(c config) serve.StartWorker {
	return func(rank int) (serve.Worker, error) {
		exe, err := os.Executable()
		if err != nil {
			return nil, err
		}
		args := []string{"-worker"}
		if c.cpuProf != "" {
			args = append(args, "-cpuprofile", fmt.Sprintf("%s.rank%d", c.cpuProf, rank))
		}
		if c.memProf != "" {
			args = append(args, "-memprofile", fmt.Sprintf("%s.rank%d", c.memProf, rank))
		}
		return serve.ProcessWorkers(exe, nil, args...)(rank)
	}
}

// rankLog is what the -launch parent keeps of its ranks' events: the
// newest buddy checkpoint each reported (its death report's progress) and
// its result.
type rankLog struct {
	ckpt []*serve.Checkpoint
	done []serve.WorkerEvent
}

func newRankLog(n int) *rankLog {
	return &rankLog{ckpt: make([]*serve.Checkpoint, n), done: make([]serve.WorkerEvent, n)}
}

func (l *rankLog) observe(rank int, ev serve.WorkerEvent) {
	switch ev.Event {
	case "ckpt":
		if ev.Ckpt != nil && ev.Ckpt.Rank == rank {
			l.ckpt[rank] = ev.Ckpt
		}
	case "done":
		l.done[rank] = ev
	}
}

// runLaunch runs p.ranksX*p.ranksY rank processes over loopback, each
// started by start (launchWorkers; the tests re-exec the test binary
// instead), and verifies their merged result.
func runLaunch(c config, p plan, start serve.StartWorker) error {
	n := p.ranksX * p.ranksY
	w, err := c.wire(p)
	if err != nil {
		return err
	}
	spec, err := abft.SpecFromWire[float32](w)
	if err != nil {
		return err
	}
	doc, err := json.Marshal(w)
	if err != nil {
		return err
	}
	var chaosPlan *chaos.Plan
	if c.chaos != "" {
		if chaosPlan, err = chaos.Load(c.chaos); err != nil {
			return err
		}
	}
	pool, err := serve.NewPool(n, start)
	if err != nil {
		return err
	}
	// Whatever way the launch ends, no rank process outlives it.
	defer pool.Close()

	ranks := newRankLog(n)
	deaths := 0
	// An explicit -rendezvous wins (e.g. a fixed port an external observer
	// knows); otherwise the gang reserves a loopback port for rank 0.
	g := serve.Gang{
		Req:        serve.JobRequest{ID: "launch", Spec: doc, Iters: c.iters},
		Layout:     serve.Layout{Nx: c.nx, Ny: c.ny},
		Elem:       w.Elem,
		Rendezvous: c.rendezvous,
	}
	// Fail-stop recovery: the parent hosts the coordinator the children
	// report rank deaths to, and its Respawn callback hands the gang the
	// plan on which it restarts the dead rank's worker.
	var control string
	if c.recover {
		respawns := make(chan resilience.Plan, n) // a recovery round plans at most one claimant a rank
		co, err := resilience.StartCoordinator(resilience.CoordinatorConfig{
			RanksX: p.ranksX, RanksY: p.ranksY,
			DiskDir: c.ckptDir,
			Respawn: func(plan resilience.Plan) error {
				respawns <- plan
				return nil
			},
			OnDecision: func(plan resilience.Plan) {
				if plan.Err != "" {
					return
				}
				if len(plan.DeadRanks) > 0 {
					fmt.Printf("coordinator: ranks %v declared dead together; cluster restores generation %d from disk (%s) as epoch %d\n",
						plan.DeadRanks, plan.RestartGen, plan.Disk, plan.Epoch)
					return
				}
				fmt.Printf("coordinator: rank %d declared dead; cluster rolls back to generation %d as epoch %d\n",
					plan.Dead, plan.RestartGen, plan.Epoch)
			},
		})
		if err != nil {
			return err
		}
		defer co.Close()
		control = co.Addr()
		g.Respawns = respawns
		g.OnDeath = func(e *serve.RankError) {
			deaths++
			fmt.Println(ranks.deathReport(e))
		}
		fmt.Printf("stencilrun -launch: recovery coordinator at %s (buddy period %d)\n", control, c.buddy)
	}
	// A respawned claimant's placement carries the -die drill too; it
	// fires only in epoch 0 (serve.RunResilient).
	g.Place = func(rank int) serve.Placement {
		pl := serve.Placement{Control: control, Buddy: c.buddy, CkptDir: c.ckptDir,
			Chaos: chaosPlan, ChaosSeed: c.chaosSeed, Trace: c.trace != ""}
		if rank == p.dieRank {
			pl.DieAt = p.dieIter
		}
		return pl
	}

	fmt.Printf("stencilrun -launch: %d rank processes over a %dx%d grid\n", n, p.ranksY, p.ranksX)

	timer := metrics.StartTimer()
	res, err := pool.RunGang(g, ranks.observe)
	if err != nil {
		if e, ok := err.(*serve.RankError); ok {
			return fmt.Errorf("rank %d process failed: %w", e.Rank, e.Err)
		}
		return err
	}
	wall := timer.Seconds()

	if c.trace != "" {
		if err := mergeTraces(c.trace, ranks.done); err != nil {
			return err
		}
	}
	merged := res.Stats

	// A scheduled fault drill that left no trace in the counters means the
	// kill never landed or the survivors never recovered — either way the
	// run did not exercise what it claims, so the gate fails it.
	if p.dieIter > 0 && c.recover {
		if deaths < 1 {
			return fmt.Errorf("the -die %s drill killed no rank process (merged stats: %v)", c.die, merged)
		}
		if merged.Recoveries < 1 {
			return fmt.Errorf("the -die %s drill completed without any recorded recovery (merged stats: %v)", c.die, merged)
		}
	}

	cells, err := dist.DecodeElems[float32](4, res.Grid.Raw)
	if err != nil {
		return err
	}
	global := abft.New[float32](c.nx, c.ny)
	copy(global.Data(), cells)
	ref, err := reference(spec, c.iters)
	if err != nil {
		return err
	}

	decomp := dist.Decomp{Nx: c.nx, Ny: c.ny, RanksX: p.ranksX, RanksY: p.ranksY}
	fmt.Printf("wall time:        %.4fs (%d processes)\n", wall, n)
	fmt.Printf("merged stats:     %v\n", merged)
	for k, ev := range ranks.done {
		fmt.Printf("  rank %d tile %v: %v\n", k, decomp.TileOf(k), *ev.Stats)
	}

	if c.inject {
		if merged.Detections < 1 || merged.CorrectedPoints+merged.ChecksumRepairs < 1 {
			return fmt.Errorf("the injected corruption was not detected/repaired by any rank process (merged stats: %v)", merged)
		}
		fmt.Printf("injection handled: detections=%d corrected=%d checksum-repairs=%d across %d processes\n",
			merged.Detections, merged.CorrectedPoints, merged.ChecksumRepairs, n)
		// A repaired point is recomputed from the intact previous iteration,
		// so the run continues as the fault-free one: the same gate applies.
		if merged.CorrectedPoints == 0 {
			return nil
		}
	}

	if x, y, differ := firstDiff(global, ref); differ {
		return fmt.Errorf("gathered grid differs from the single-process reference at (%d,%d): %v != %v (rank %d's tile)",
			x, y, global.At(x, y), ref.At(x, y), decomp.OwnerOf(x, y))
	}
	fmt.Printf("gathered grid is bit-identical to the single-process reference (%dx%d points, %d processes)\n",
		c.nx, c.ny, n)
	return nil
}

// deathReport names a dead rank process, how it exited, the last buddy
// checkpoint generation it had reported, and how much transport healing
// (reconnects, resent frames) it had done by then — the launcher-side
// diagnostic for a fail-stop event.
func (l *rankLog) deathReport(e *serve.RankError) string {
	progress := "no buddy checkpoint reported"
	if ck := l.ckpt[e.Rank]; ck != nil {
		progress = fmt.Sprintf("last buddy checkpoint at generation %d", ck.Gen)
		if ck.Reconnects > 0 || ck.Resends > 0 {
			progress += fmt.Sprintf(" after %d reconnects and %d resent frames", ck.Reconnects, ck.Resends)
		}
	}
	return fmt.Sprintf("rank %d process (epoch %d) died: %v; %s", e.Rank, e.Epoch, e.Err, progress)
}

// mergeTraces concatenates the ranks' trace timelines onto one re-based
// timeline and writes it to path. Every rank stamped its spans with
// absolute wall-clock timestamps under its own global rank pid, so the
// merge is a concatenation plus a re-base of the time origin.
func mergeTraces(path string, done []serve.WorkerEvent) error {
	parts := make([]telemetry.TraceFile, 0, len(done))
	for k, ev := range done {
		tf, err := telemetry.ParseTrace(bytes.NewReader(ev.Trace))
		if err != nil {
			return fmt.Errorf("rank %d trace: %w", k, err)
		}
		parts = append(parts, tf)
	}
	merged := telemetry.MergeTraces(parts)
	if err := writeFile(path, func(w io.Writer) error { return json.NewEncoder(w).Encode(merged) }); err != nil {
		return err
	}
	fmt.Printf("trace: merged %d rank timelines (%d lanes) into %s\n",
		len(done), len(merged.RankLanes()), path)
	return nil
}
