package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

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

// child is one rank process as its parent sees it. The goroutine in run
// owns the mutable fields until it sends the child on the exits channel.
type child struct {
	rank, epoch int
	w           serve.Worker
	ckpt        *serve.Checkpoint // the newest buddy checkpoint the rank reported
	done        serve.WorkerEvent // its result, once finished
	err         error             // why it ended without one
}

// run drives the rank's job to its terminal event, remembering the newest
// checkpoint on the way. Nil means the rank delivered its result and exited
// cleanly; a dead process is reported by how it exited, which says more
// than its pipe's EOF.
func (ch *child) run(req serve.JobRequest) error {
	var failed error
	err := serve.RunJob(ch.w, req, func(ev serve.WorkerEvent) {
		switch ev.Event {
		case "ckpt":
			if ev.Ckpt != nil && ev.Ckpt.Rank == ch.rank {
				ch.ckpt = ev.Ckpt
			}
		case "done":
			ch.done = ev
		case "error":
			failed = errors.New(ev.Error)
		}
	})
	exit := ch.w.Close()
	switch {
	case err != nil && exit != nil:
		return exit
	case err != nil:
		return err
	case failed != nil:
		return failed
	}
	return exit
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

	// An explicit -rendezvous wins (e.g. a fixed port an external observer
	// knows); otherwise reserve a loopback port for rank 0 to bind.
	rendezvous := c.rendezvous
	if rendezvous == "" {
		if rendezvous, err = resilience.ReserveAddr("127.0.0.1"); err != nil {
			return err
		}
	}

	// Fail-stop recovery: the parent hosts the coordinator the children
	// report rank deaths to, and its Respawn callback is how a replacement
	// process for a dead rank gets started — routed through a channel so the
	// wait loop below stays the single owner of the child bookkeeping.
	var control string
	respawns := make(chan resilience.Plan, 4)
	if c.recover {
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
		fmt.Printf("stencilrun -launch: recovery coordinator at %s (buddy period %d)\n", control, c.buddy)
	}

	fmt.Printf("stencilrun -launch: %d rank processes over a %dx%d grid, rendezvous %s\n",
		n, p.ranksY, p.ranksX, rendezvous)

	timer := metrics.StartTimer()
	var children []*child
	// Whatever way the launch ends, no rank process outlives it.
	defer func() {
		for _, ch := range children {
			ch.w.Kill()
		}
	}()
	exits := make(chan *child, 2*n) // every child of a run with up to n deaths reports without blocking
	// spawn starts rank's process and posts its job. epoch > 0 marks a
	// respawned claimant, which fetches its rendezvous, restart generation
	// and tile state from the coordinator — so it gets neither the bootstrap
	// rendezvous nor the -die drill.
	spawn := func(rank, epoch int) error {
		wk, err := start(rank)
		if err != nil {
			return fmt.Errorf("starting rank %d (epoch %d): %w", rank, epoch, err)
		}
		ch := &child{rank: rank, epoch: epoch, w: wk}
		children = append(children, ch)
		place := &serve.Placement{Rank: rank, Epoch: epoch, Control: control, Buddy: c.buddy, CkptDir: c.ckptDir,
			Chaos: chaosPlan, ChaosSeed: c.chaosSeed, Trace: c.trace != ""}
		if epoch == 0 {
			place.Rendezvous = rendezvous
			if rank == p.dieRank {
				place.DieAt = p.dieIter
			}
		}
		req := serve.JobRequest{ID: fmt.Sprintf("rank%d-epoch%d", rank, epoch), Spec: doc, Iters: c.iters, Place: place}
		go func() { ch.err = ch.run(req); exits <- ch }()
		return nil
	}
	for k := 0; k < n; k++ {
		if err := spawn(k, 0); err != nil {
			return err
		}
	}

	// The wait loop: every rank must end with one successful terminal
	// process. Without -recover the first failure aborts the launch; with it
	// a death is diagnosed and the loop keeps serving exits and respawns
	// until the cluster completes (or nothing that could complete remains).
	done := make([]serve.WorkerEvent, n)
	finished, running, deaths := 0, n, 0
	for finished < n {
		var idle <-chan time.Time
		if running == 0 {
			idle = time.After(15 * time.Second)
		}
		select {
		case plan := <-respawns:
			if err := spawn(plan.Dead, plan.Epoch); err != nil {
				return err
			}
			running++
		case <-idle:
			return fmt.Errorf("no rank processes left and no respawn pending (%d of %d ranks finished)", finished, n)
		case ch := <-exits:
			running--
			if ch.err == nil {
				done[ch.rank] = ch.done
				finished++
				continue
			}
			if !c.recover {
				return fmt.Errorf("rank %d process failed: %w", ch.rank, ch.err)
			}
			deaths++
			fmt.Println(deathReport(ch))
			if deaths > n {
				return fmt.Errorf("%d rank processes died — more than the cluster holds; giving up", deaths)
			}
		}
	}
	wall := timer.Seconds()

	if c.trace != "" {
		if err := mergeTraces(c.trace, done); err != nil {
			return err
		}
	}
	res, err := serve.GatherRanks(done, serve.Layout{Nx: c.nx, Ny: c.ny}, w.Elem)
	if err != nil {
		return err
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
	for k, ev := range done {
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
func deathReport(ch *child) string {
	progress := "no buddy checkpoint reported"
	if ck := ch.ckpt; ck != nil {
		progress = fmt.Sprintf("last buddy checkpoint at generation %d", ck.Gen)
		if ck.Reconnects > 0 || ck.Resends > 0 {
			progress += fmt.Sprintf(" after %d reconnects and %d resent frames", ck.Reconnects, ck.Resends)
		}
	}
	return fmt.Sprintf("rank %d process (epoch %d) died: %v; %s", ch.rank, ch.epoch, ch.err, progress)
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
