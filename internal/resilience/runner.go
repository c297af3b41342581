package resilience

import (
	"errors"
	"fmt"
	"time"

	"stencilabft/internal/dist"
	"stencilabft/internal/num"
	"stencilabft/internal/stats"
	"stencilabft/internal/telemetry"
)

// Factory builds one incarnation of this process's cluster, hosting
// Config.Rank: the epoch numbers the incarnation (0 before any failure),
// rendezvous is the transport bootstrap address for that epoch, and
// afterStep must be installed as dist.Options.AfterStep — it is the
// runner's buddy checkpointing hook.
type Factory[T num.Float] func(epoch int, rendezvous string, afterStep func(rank, iter int)) (*dist.Cluster[T], error)

// Config configures a fault-tolerant run of one process's rank.
type Config[T num.Float] struct {
	// Total is the absolute iteration count the run must reach.
	Total int
	// Period is the buddy checkpoint interval j (iterations); < 1 disables
	// buddy checkpointing, leaving faults fatal.
	Period int
	// Control is the recovery coordinator's address; empty leaves faults
	// fatal (the first transport fault is returned as an error).
	Control string
	// Timeout bounds each control-plane exchange (default 30s).
	Timeout time.Duration
	// Rank is the rank this process hosts, for the whole run.
	Rank int
	// Factory builds each cluster incarnation.
	Factory Factory[T]
	// Epoch and Rendezvous identify the first incarnation (nonzero for a
	// respawned process joining mid-recovery, from the plan it claimed).
	Epoch      int
	Rendezvous string
	// StartIter is the absolute iteration the first incarnation starts at;
	// InitialState is the rank's packed state to install there (a respawned
	// process's relayed snapshot). Nil falls back to the disk rotation under
	// DiskDir, and at StartIter 0 to the built cluster's deterministic
	// initial state.
	StartIter    int
	InitialState []T
	// Telemetry attributes ckpt-save/ckpt-send/recover-wait/restore phase
	// time per rank; nil disables instrumentation.
	Telemetry *telemetry.Collector
	// OnCheckpoint, when non-nil, observes every completed buddy checkpoint
	// (rank, generation) of the live incarnation cl — a launcher's
	// liveness/progress feed. Called from rank goroutines; it must be safe
	// for concurrent use.
	OnCheckpoint func(cl *dist.Cluster[T], rank, gen int)
	// DiskDir, when set, persists every periodic checkpoint to per-rank
	// rotations under it and restores from there when a plan's restart
	// generation is in nobody's memory bank — the whole-cluster fallback a
	// buddy-pair double death escalates to. Must match the coordinator's
	// DiskDir.
	DiskDir string
	// MaxRecoveries caps how many faults this process survives (default 3).
	MaxRecoveries int
}

// Run drives this process's rank to Config.Total iterations, surviving
// peer-process deaths along the way: on a transport fault it reports to
// the coordinator, rolls back to the agreed checkpoint generation, rebuilds
// the cluster for the new epoch (the dead rank rejoins as a fresh process),
// and resumes. It returns the final cluster — its tiles hold the converged
// state for gathering — plus the resilience counters (recoveries,
// rollbacks, recomputed iterations, checkpoint costs) for the caller to
// merge into the run's stats.
func Run[T num.Float](cfg Config[T]) (*dist.Cluster[T], stats.Stats, error) {
	var extra stats.Stats
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	if cfg.MaxRecoveries <= 0 {
		cfg.MaxRecoveries = 3
	}
	buddy := NewBuddy[T](cfg.Period, cfg.Telemetry)
	if cfg.DiskDir != "" {
		buddy.EnableDisk(cfg.DiskDir)
	}
	epoch, rdv := cfg.Epoch, cfg.Rendezvous
	startIter := cfg.StartIter
	state := cfg.InitialState
	recoveries := 0
	diskRestores := 0

	for {
		var cl *dist.Cluster[T] // set before any rank steps, so before hook reads it
		hook := func(rank, iter int) {
			buddy.AfterStep(rank, iter)
			if cfg.OnCheckpoint != nil && cfg.Period > 0 && (iter+1)%cfg.Period == 0 {
				cfg.OnCheckpoint(cl, rank, iter+1)
			}
		}
		cl, err := cfg.Factory(epoch, rdv, hook)
		if err != nil {
			return nil, extra, fmt.Errorf("resilience: building epoch %d: %w", epoch, err)
		}
		if err := buddy.Attach(cl); err != nil {
			cl.Close()
			return nil, extra, err
		}
		rec := cfg.Telemetry.Recorder(cfg.Rank)

		if startIter > 0 {
			t0 := rec.Begin()
			if state == nil {
				state = buddy.SelfState(cfg.Rank, startIter)
			}
			if state == nil && cfg.DiskDir != "" {
				// Third rung: neither a relayed snapshot nor a memory bank
				// covers this rank (a double death took both copies) —
				// restore from the shared disk rotation.
				if ds, err := LoadRankState[T](cfg.DiskDir, cfg.Rank, startIter); err == nil {
					state = ds
					diskRestores++
				}
			}
			if state == nil {
				cl.Close()
				return nil, extra, fmt.Errorf("resilience: rank %d has no state banked at generation %d", cfg.Rank, startIter)
			}
			// The vector came from outside this incarnation — a rotation file
			// under DiskDir, or a frame the coordinator relayed — so its length
			// is checked here, not trusted: RestoreState indexes by the tile's.
			if want := cl.StateLen(cfg.Rank); len(state) != want {
				cl.Close()
				return nil, extra, fmt.Errorf("resilience: rank %d's state at generation %d holds %d values, its tile packs %d (a checkpoint of another run or domain size?)", cfg.Rank, startIter, len(state), want)
			}
			cl.RestoreState(cfg.Rank, state)
			buddy.Seed(cfg.Rank, startIter, state)
			cl.SetIter(startIter)
			rec.End(telemetry.PhaseRestore, t0)
		}
		state = nil

		runErr := cl.RunRecover(cfg.Total - startIter)
		if runErr == nil {
			extra.Checkpoint = buddy.Stats()
			extra.Checkpoint.Restores += diskRestores
			return cl, extra, nil
		}
		cl.Close()
		recoveries++
		if cfg.Control == "" || cfg.Period < 1 || recoveries > cfg.MaxRecoveries {
			return nil, extra, runErr
		}

		rep := Report{Rank: cfg.Rank, Suspect: -1, SelfGens: buddy.SelfGens(), WardGens: buddy.WardGens()}
		var f *dist.Fault
		if errors.As(runErr, &f) {
			rep.Suspect = f.Peer
			// Fault.Gen counts transport barrier generations, which under
			// depth-k ghost zones advance once per k iterations — scale it
			// back to the iteration timeline the rollback reasons in.
			rep.Gen = startIter + f.Gen*cl.HaloDepth()
		}
		t0 := rec.Begin()
		plan, err := ReportFault(cfg.Control, rep, buddy.WardState, cfg.Timeout)
		rec.End(telemetry.PhaseRecoverWait, t0)
		if err != nil {
			return nil, extra, fmt.Errorf("%v (recovering from: %v)", err, runErr)
		}

		extra.Recoveries++
		extra.Rollbacks++
		if lost := rep.Gen - plan.RestartGen; lost > 0 {
			extra.RecomputedIters += lost
		}
		buddy.Rollback(plan.RestartGen)
		if plan.Disk != "" {
			// Escalation plan: a buddy pair died together, so the whole
			// cluster restarts from the shared disk rotations — read in the
			// next incarnation's restore step.
			cfg.DiskDir = plan.Disk
			buddy.EnableDisk(plan.Disk)
		}
		epoch, rdv = plan.Epoch, plan.Rendezvous
		startIter = plan.RestartGen
	}
}
