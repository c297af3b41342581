package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"stencilabft/internal/resilience"
	"stencilabft/internal/stats"
)

// Gang is a job for the gang runner, the one parent loop behind both a
// scheduled job and stencilrun -launch, to run on held pool slots, rank k
// on slot k. Beyond the job, its fields are what those two callers differ
// in: the service sets Timeout; -launch sets Place and Rendezvous, and
// under -recover Respawns and OnDeath.
type Gang struct {
	// Req is the job: ID, Spec, Iters and the StatsEvery rank 0 streams
	// at. The runner seats every rank of a multi-slot gang through Place.
	Req JobRequest
	// Layout and Elem shape the domain the workers must return.
	Layout Layout
	Elem   string
	// Place seats rank k beyond {Rank: k} — what stencilrun -launch asks
	// of a rank (coordinator, buddy period, drill, chaos, trace). A gang
	// of one slot without Place is a local job: its request goes unplaced.
	Place func(rank int) Placement
	// Rendezvous is where the ranks of epoch 0 meet; "" reserves a
	// loopback port.
	Rendezvous string
	// Respawns, when set, makes a failed rank a death instead of the
	// gang's end: OnDeath (required with it) hears of it, and each plan
	// received restarts the plan's rank on its slot as the claimant of
	// plan.Epoch.
	Respawns <-chan resilience.Plan
	OnDeath  func(*RankError)
	// Timeout kills the gang's workers once exceeded; 0 never does.
	Timeout time.Duration
}

// RankError is how a gang rank failed: its job answered "error", or its
// worker died (crashed, was killed, or spoke garbage).
type RankError struct {
	Rank, Epoch int
	Status      int   // the HTTP status the failure maps to
	Err         error // the job's error message, or how the worker exited
	died        bool
}

func (e *RankError) Error() string {
	if e.died {
		return fmt.Sprintf("serve: rank %d worker failed: %v", e.Rank, e.Err)
	}
	return e.Err.Error()
}

// RunGang runs g on every slot of the pool, rank k on slot k: stencilrun
// -launch's cluster, one worker per rank. It keeps the slots — the pool
// has served its one gang, and Close ends the workers.
func (p *Pool) RunGang(g Gang, onEvent func(rank int, ev WorkerEvent)) (Result, error) {
	slots, _ := p.acquire(context.Background(), len(p.slots))
	return p.runGang(slots, &g, onEvent)
}

// runGang runs g on slots and returns the gathered result, or the first
// failure — the *RankError of a rank whose job answered "error" or whose
// worker died. Without respawns that failure collapses the gang: every
// other slot is killed rather than left to stall at its next halo
// exchange. A failed worker is stopped and taken from its slot, so a
// caller releases every slot healthy and the pool respawns the emptied
// ones. onEvent observes every
// worker event on the calling goroutine. It is a parameter, not a Gang
// field: Req's bytes escape to the workers, and a closure stored beside
// them would escape with them — an allocation for every job.
func (p *Pool) runGang(slots []*Slot, g *Gang, onEvent func(rank int, ev WorkerEvent)) (Result, error) {
	if len(slots) == 1 && g.Place == nil {
		return g.runOne(slots[0], onEvent)
	}
	return p.runRanks(slots, g, onEvent)
}

// runOne is the gang of one: the unplaced request on the calling
// goroutine, with no rendezvous, and the worker's grid as the result.
func (g *Gang) runOne(s *Slot, onEvent func(rank int, ev WorkerEvent)) (Result, error) {
	token := s.arm()
	if g.Timeout > 0 {
		watchdog := time.AfterFunc(g.Timeout, func() { s.killIf(token) })
		defer watchdog.Stop()
	}
	done, fail := runRank(s, 0, 0, g.Req, func(ev WorkerEvent) { onEvent(0, ev) })
	if fail != nil {
		return Result{}, fail
	}
	return gatherRanks([]WorkerEvent{done}, g.Layout, g.Elem)
}

// runRank runs req on slot s to its end: the rank's "done" event, or the
// failure of rank k at epoch — its job's "error" event, or its worker's
// death, told by how the worker exited.
func runRank(s *Slot, k, epoch int, req JobRequest, onEvent func(WorkerEvent)) (WorkerEvent, *RankError) {
	var done WorkerEvent
	var fail *RankError
	err := s.Run(req, func(ev WorkerEvent) {
		switch ev.Event {
		case "done":
			done = ev
		case "error":
			fail = &RankError{Rank: k, Epoch: epoch, Status: ev.Status, Err: errors.New(ev.Error)}
		}
		onEvent(ev)
	})
	if err != nil {
		if exit := s.stop(); exit != nil {
			err = exit
		}
		return done, &RankError{Rank: k, Epoch: epoch, Status: http.StatusInternalServerError, Err: err, died: true}
	}
	return done, fail
}

// rankMsg is what a rank's goroutine tells the runner, in order: the
// events of its run, the last of which ("done") ends a run that succeeded,
// then the failure of one that did not.
type rankMsg struct {
	rank int
	ev   WorkerEvent
	fail *RankError
}

// runRanks is the gang of placed ranks: each on a goroutine of its own,
// meeting at one rendezvous, their tiles gathered.
func (p *Pool) runRanks(slots []*Slot, g *Gang, onEvent func(rank int, ev WorkerEvent)) (Result, error) {
	n := len(slots)
	rdv := g.Rendezvous
	if rdv == "" {
		var err error
		if rdv, err = resilience.ReserveAddr("127.0.0.1"); err != nil {
			return Result{}, err
		}
	}
	msgs := make(chan rankMsg, n) // a slot a rank: events queue while the loop restarts or kills
	tokens := make([]uint64, n)   // a running rank's kill token; 0 once its run ended
	claims := make([]int, n)      // the claimant epoch a rank's restart waits on its run's end for
	done := make([]WorkerEvent, n)
	running, finished, deaths := 0, 0, 0
	var failure error
	killAll := func() {
		for k, s := range slots {
			s.killIf(tokens[k])
		}
	}
	// start posts rank k's placed request; epoch > 0 first restarts its
	// worker as the claimant of that epoch, which fetches its rendezvous,
	// restart generation and state from the coordinator.
	start := func(k, epoch int) {
		if epoch > 0 {
			if err := p.respawn(slots[k]); err != nil {
				failure = fmt.Errorf("serve: restarting rank %d (epoch %d): %w", k, epoch, err)
				killAll()
				return
			}
		}
		var pl Placement
		if g.Place != nil {
			pl = g.Place(k)
		}
		if pl.Rank, pl.Epoch = k, max(pl.Epoch, epoch); pl.Epoch == 0 {
			pl.Rendezvous = rdv
		}
		req := g.Req
		if req.Place = &pl; k != 0 {
			req.StatsEvery = 0
		}
		tokens[k] = slots[k].arm()
		running++
		go func() {
			if _, fail := runRank(slots[k], k, pl.Epoch, req, func(ev WorkerEvent) { msgs <- rankMsg{rank: k, ev: ev} }); fail != nil {
				msgs <- rankMsg{rank: k, fail: fail}
			}
		}()
	}
	for k := range slots {
		start(k, 0)
	}

	var watchdog <-chan time.Time
	if g.Timeout > 0 {
		t := time.NewTimer(g.Timeout)
		defer t.Stop()
		watchdog = t.C
	}
	for running > 0 || (failure == nil && finished < n) {
		// With nothing running only a respawn can move the gang on; the
		// coordinator decides within one control-plane timeout of the last
		// report.
		var idle <-chan time.Time
		if running == 0 {
			idle = time.After(resilience.DefaultTimeout)
		}
		select {
		case m := <-msgs:
			if m.fail == nil {
				onEvent(m.rank, m.ev)
				if m.ev.Event != "done" {
					continue
				}
			}
			k := m.rank
			running--
			tokens[k] = 0
			switch {
			case m.fail == nil:
				done[k] = m.ev
				finished++
			case failure != nil:
				// Killed by the collapse, or dying as the gang gives up.
			case g.Respawns == nil:
				failure = m.fail
				killAll()
			default:
				g.OnDeath(m.fail)
				if deaths++; deaths > n {
					failure = fmt.Errorf("serve: %d rank workers died — more than the gang holds; giving up", deaths)
					killAll()
				} else if claims[k] > 0 {
					start(k, claims[k])
					claims[k] = 0
				}
			}
		case plan := <-g.Respawns:
			k := plan.Dead
			switch {
			case failure != nil:
			case tokens[k] != 0:
				// Declared dead before its worker's end reached us: end it
				// (a partitioned worker may still run), restart after.
				claims[k] = plan.Epoch
				slots[k].killIf(tokens[k])
			default:
				start(k, plan.Epoch)
			}
		case <-watchdog:
			killAll()
		case <-idle:
			failure = fmt.Errorf("serve: no rank workers left and no respawn pending (%d of %d ranks finished)", finished, n)
		}
	}
	if failure != nil {
		return Result{}, failure
	}
	return gatherRanks(done, g.Layout, g.Elem)
}

// gatherRanks reassembles the "done" events of a gang's ranks (indexed by
// rank) into the global domain and the merged counters. Tile rows are
// copied into place as bytes: nothing is decoded on the way. A gang of one
// returned the whole domain, which is the result as it stands.
func gatherRanks(done []WorkerEvent, lay Layout, elem string) (Result, error) {
	nx, ny, es := lay.Nx, lay.Ny, elemSize(elem)
	for k, ev := range done {
		gp := ev.Grid
		if gp == nil || ev.Stats == nil {
			return Result{}, fmt.Errorf("serve: rank %d returned no result", k)
		}
		if !tileFits(gp, lay, elem) || len(done) == 1 && (gp.Nx != nx || gp.Ny != ny) {
			return Result{}, fmt.Errorf("serve: rank %d returned a %dx%dx%d %s tile at (%d,%d) for the %dx%dx%d %s domain",
				k, gp.Nx, gp.Ny, gp.Nz, gp.Elem, gp.X0, gp.Y0, nx, ny, lay.Nz, elem)
		}
	}
	if len(done) == 1 {
		return Result{Grid: done[0].Grid, Stats: *done[0].Stats}, nil
	}
	raw := make([]byte, nx*ny*es)
	perRank := make([]stats.Stats, 0, len(done))
	for _, ev := range done {
		gp := ev.Grid
		row := gp.Nx * es
		for yy := 0; yy < gp.Ny; yy++ {
			copy(raw[((gp.Y0+yy)*nx+gp.X0)*es:], gp.Raw[yy*row:(yy+1)*row])
		}
		perRank = append(perRank, *ev.Stats)
	}
	// Every rank process reports the same lockstep Iterations; merging sums
	// them, so restore the one global sweep count — the convention
	// Cluster.Stats uses in-process.
	merged := stats.MergeAll(perRank)
	merged.Iterations = perRank[0].Iterations
	return Result{Grid: &GridPayload{Nx: nx, Ny: ny, Elem: elem, Raw: raw}, Stats: merged}, nil
}

// tileFits reports whether g is a well-formed payload of element type elem
// lying inside the lay domain. Worker is an interface, so a host checks
// what it is handed before indexing by it.
func tileFits(g *GridPayload, lay Layout, elem string) bool {
	want, err := g.byteLen()
	return err == nil && len(g.Raw) == want && g.Elem == elem && g.Nz == lay.Nz &&
		g.X0 >= 0 && g.Y0 >= 0 && g.Nx <= lay.Nx-g.X0 && g.Ny <= lay.Ny-g.Y0
}
