package serve

import (
	"bytes"
	"fmt"
	"os"
	"time"

	abft "stencilabft"
	"stencilabft/internal/chaos"
	"stencilabft/internal/dist"
	"stencilabft/internal/resilience"
	"stencilabft/internal/stats"
)

// Placement seats a worker as one rank of a multi-process tcp cluster: the
// process-placement half of a job, which the wire spec deliberately
// excludes. Rank and Rendezvous are all a gang member of the scheduler
// needs; the rest is what stencilrun -launch asks of its rank processes.
type Placement struct {
	Rank       int         `json:"rank"`
	Rendezvous string      `json:"rendezvous,omitempty"`
	Epoch      int         `json:"epoch,omitempty"`   // > 0: a respawned claimant; rendezvous, restart generation and state come from Control
	Control    string      `json:"control,omitempty"` // the recovery coordinator faults are reported to
	Buddy      int         `json:"buddy,omitempty"`   // > 0: checkpoint to the buddy rank every Buddy iterations, run through resilience.Run
	CkptDir    string      `json:"ckptDir,omitempty"` // also persist buddy checkpoints here (the double-death fallback)
	DieAt      int         `json:"dieAt,omitempty"`   // fault drill: SIGKILL the process after it completes this iteration
	Chaos      *chaos.Plan `json:"chaos,omitempty"`   // transport faults to inject, seeded by ChaosSeed
	ChaosSeed  int64       `json:"chaosSeed,omitempty"`
	Trace      bool        `json:"trace,omitempty"` // attach the rank's span timeline to the "done" event
}

// Checkpoint is the payload of a "ckpt" event: Rank completed the buddy
// checkpoint of generation Gen, its transport having rebuilt Reconnects
// connections and replayed Resends frames by then — what a death report
// says of a rank that dies next.
type Checkpoint struct {
	Rank       int   `json:"rank"`
	Gen        int   `json:"gen"`
	Reconnects int64 `json:"reconnects,omitempty"`
	Resends    int64 `json:"resends,omitempty"`
}

// runPlaced is runTyped's body for a placed request: build this process's
// rank of the cluster, drive it (through resilience.Run when the placement
// takes buddy checkpoints), and answer with the rank's tile.
func runPlaced[T abft.Float](req JobRequest, spec abft.Spec[T], elem string, emit func(WorkerEvent) error) error {
	pl := req.Place
	harness, err := NewChaosHarness(pl.Chaos, pl.ChaosSeed, true)
	if err != nil {
		return emit(errorEvent(err))
	}
	spec.Transport, spec.Rank, spec.Rendezvous = abft.TransportTCP, pl.Rank, pl.Rendezvous
	ApplyChaos(harness, &spec)

	// Closed however the job ends — a transport fault included, which
	// panics out of stepAll into runTyped's recover.
	var cl *abft.Cluster[T]
	defer func() {
		if cl != nil {
			cl.Close()
		}
	}()
	var extra stats.Stats
	if pl.Buddy > 0 {
		// Checkpoints complete on the one rank goroutine this process hosts.
		cl, extra, err = RunResilient(spec, *pl, req.Iters, func(ck Checkpoint) {
			emit(WorkerEvent{Event: "ckpt", Ckpt: &ck}) // a vanished host fails the next emit too
		})
		if err != nil {
			return emit(errorEvent(err))
		}
	} else {
		p, err := abft.Build(spec)
		if err != nil {
			return emit(errorEvent(err))
		}
		cl = p.(*abft.Cluster[T]) // what a validated tcp spec builds
		if err := stepAll[T](cl, req, emit); err != nil {
			return err
		}
	}
	st := cl.Stats().Merge(extra)
	ev := WorkerEvent{Event: "done", Iter: req.Iters, Stats: &st, Grid: rankTile(cl, pl.Rank, elem)}
	if pl.Trace {
		var buf bytes.Buffer
		if err := abft.WriteTrace(&buf, spec.Telemetry); err != nil {
			return emit(errorEvent(err))
		}
		ev.Trace = buf.Bytes()
	}
	return emit(ev)
}

// rankTile extracts the worker's own tile from a gathered grid. Under a
// single hosted rank the gather fills only that tile (remote tiles stay
// zero), so slicing the tile rectangle is exactly this rank's contribution.
func rankTile[T abft.Float](cl *abft.Cluster[T], rank int, elem string) *GridPayload {
	tile := cl.Tile(rank)
	g := cl.Grid()
	pay := &GridPayload{Nx: tile.Nx(), Ny: tile.Ny(), X0: tile.X0, Y0: tile.Y0, Elem: elem,
		Raw: make([]byte, 0, tile.Nx()*tile.Ny()*elemSize(elem))}
	for y := tile.Y0; y < tile.Y1; y++ {
		pay.Raw = dist.AppendElems(pay.Raw, g.Row(y)[tile.X0:tile.X1])
	}
	return pay
}

// RunResilient is a tcp rank process's fault-tolerant path, shared by pool
// workers and hand-started stencilrun ranks: the cluster is built from spec
// (already on the tcp transport as pl.Rank) through a factory so fail-stop
// recovery can rebuild it per epoch, buddy checkpoints flow
// every pl.Buddy iterations, and with pl.Control a peer process's death
// rolls the run back instead of killing it. onCkpt, when non-nil, observes
// every completed buddy checkpoint from the rank goroutines. It returns the
// final cluster plus the resilience counters to merge into its stats.
func RunResilient[T abft.Float](spec abft.Spec[T], pl Placement, iters int, onCkpt func(Checkpoint)) (*abft.Cluster[T], stats.Stats, error) {
	factory := func(epoch int, rdv string, after func(rank, iter int)) (*abft.Cluster[T], error) {
		s := spec
		s.Rendezvous, s.AfterStep = rdv, after
		if pl.DieAt > 0 && epoch == 0 {
			s.AfterStep = func(r, it int) {
				after(r, it)
				if it+1 == pl.DieAt {
					killSelf()
				}
			}
		}
		prot, err := abft.Build(s)
		if err != nil {
			return nil, err
		}
		return prot.(*abft.Cluster[T]), nil
	}
	cfg := resilience.Config[T]{
		Total: iters, Period: pl.Buddy, Control: pl.Control,
		Rank: pl.Rank, Factory: factory, Telemetry: spec.Telemetry,
		Rendezvous: pl.Rendezvous, DiskDir: pl.CkptDir,
	}
	if onCkpt != nil {
		cfg.OnCheckpoint = func(cl *abft.Cluster[T], rank, gen int) {
			tm := cl.TransportMetrics()
			onCkpt(Checkpoint{Rank: rank, Gen: gen, Reconnects: tm.Reconnects, Resends: tm.Resends})
		}
	}
	if pl.Epoch > 0 {
		claim, state, err := resilience.RequestClaim[T](pl.Control, pl.Rank, 30*time.Second)
		if err != nil {
			return nil, stats.Stats{}, fmt.Errorf("claiming rank %d from the coordinator: %w", pl.Rank, err)
		}
		cfg.Epoch, cfg.Rendezvous = claim.Epoch, claim.Rendezvous
		cfg.StartIter, cfg.InitialState = claim.RestartGen, state
		// stderr: a worker's stdout is its protocol stream.
		fmt.Fprintf(os.Stderr, "respawned as rank %d at epoch %d, resuming from generation %d\n", pl.Rank, claim.Epoch, claim.RestartGen)
	}
	return resilience.Run(cfg)
}

// killSelf delivers an unconditional SIGKILL to this process — the fault
// drill behind Placement.DieAt: no deferred cleanup, no goodbye on any
// socket; exactly how a crashed or OOM-killed rank process looks to its
// peers.
func killSelf() {
	if p, err := os.FindProcess(os.Getpid()); err == nil {
		p.Kill()
	}
	select {} // unreachable: SIGKILL is not catchable
}
