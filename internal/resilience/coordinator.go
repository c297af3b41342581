package resilience

import (
	"encoding/json"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"stencilabft/internal/dist"
)

// CoordinatorConfig configures the recovery coordinator — one per cluster,
// hosted by a process that outlives any single rank (the stencilrun
// -launch parent, or a dedicated process for hand-started clusters).
type CoordinatorConfig struct {
	// RanksX, RanksY shape the rank grid the coordinator arbitrates for.
	RanksX, RanksY int
	// Addr is the control listen address (default "127.0.0.1:0").
	Addr string
	// Listener optionally supplies a pre-bound control listener.
	Listener net.Listener
	// RendezvousHost is the host fresh post-recovery rendezvous ports are
	// reserved on (default "127.0.0.1"). Single-host clusters only; a
	// multi-host deployment must make this routable from every rank host.
	RendezvousHost string
	// Timeout bounds each control connection's I/O. Default DefaultTimeout.
	Timeout time.Duration
	// Respawn (required) is called once per dead rank of a recovery round to
	// start its replacement process; the plan names the rank (Plan.Dead) the
	// newcomer must claim via RequestClaim.
	Respawn func(Plan) error
	// MaxRounds caps recovery rounds before the coordinator starts
	// answering reports with an error plan (default 3) — the backstop
	// against a crash-looping replacement.
	MaxRounds int
	// DiskDir, when set, arms the double-death escalation: if a recovery
	// round stalls because two or more ranks never report (a buddy pair
	// died together, so neither memory bank survives), the coordinator
	// declares them all dead and plans a whole-cluster restore from the
	// per-rank disk rotations under this directory (see RankBase). Empty
	// disables escalation — a stalled round just times out.
	DiskDir string
	// StallWait is how long a partial round may sit with no new report
	// arriving before escalation triggers (the clock restarts on every
	// report). It must exceed the gap between consecutive survivor reports:
	// detection cascades outward from the dead rank one connection teardown
	// per hop (a survivor not adjacent to the victim faults when its faulted
	// neighbours close their transports), so the gap is a step and a
	// teardown at most. Default Timeout/4.
	StallWait time.Duration
	// OnDecision, when non-nil, observes each recovery plan as it is
	// published — the launch parent's diagnostics hook.
	OnDecision func(Plan)
}

// Coordinator runs the rendezvous-led recovery protocol's deciding side:
// it collects fault reports from surviving processes, declares the missing
// rank dead by elimination once every other rank is accounted for, agrees
// the rollback generation, respawns the dead rank, relays its buddy
// snapshot to the replacement, and issues the fresh rendezvous the rebuilt
// transport bootstraps through.
type Coordinator struct {
	cfg CoordinatorConfig
	n   int
	ln  net.Listener

	mu      sync.Mutex
	epoch   int
	reports []reportConn
	stall   *time.Timer   // armed while a partial round waits (DiskDir set)
	claims  map[int]claim // dead rank -> what its replacement will claim

	wg sync.WaitGroup
}

type reportConn struct {
	conn net.Conn
	rep  Report
}

// claim is what a recovery round parks for one dead rank's replacement.
type claim struct {
	plan  Plan
	state *dist.WireFrame // the guard's relayed snapshot; nil when the replacement restores from disk or generation 0
}

// StartCoordinator binds the control listener and begins serving.
func StartCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	d := dist.Decomp{RanksX: cfg.RanksX, RanksY: cfg.RanksY}
	if d.NumRanks() < 2 {
		return nil, fmt.Errorf("resilience: a %s grid cannot lose a rank and keep running", d)
	}
	if respawn := cfg.Respawn; respawn == nil {
		return nil, fmt.Errorf("resilience: CoordinatorConfig.Respawn is required: a dead rank is only ever replaced by a fresh process")
	}
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	if cfg.RendezvousHost == "" {
		cfg.RendezvousHost = "127.0.0.1"
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = DefaultTimeout
	}
	if cfg.MaxRounds <= 0 {
		cfg.MaxRounds = 3
	}
	if cfg.StallWait <= 0 {
		cfg.StallWait = cfg.Timeout / 4
	}
	ln := cfg.Listener
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", cfg.Addr)
		if err != nil {
			return nil, fmt.Errorf("resilience: control listener %s: %w", cfg.Addr, err)
		}
	}
	c := &Coordinator{cfg: cfg, n: d.NumRanks(), ln: ln, claims: make(map[int]claim)}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		c.serve()
	}()
	return c, nil
}

// Addr returns the control listener's address — what rank processes pass
// as their recovery control endpoint.
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// Close stops the coordinator. In-flight recovery rounds are abandoned:
// their parked reporters see the connection close.
func (c *Coordinator) Close() error {
	err := c.ln.Close()
	c.mu.Lock()
	if c.stall != nil {
		c.stall.Stop()
		c.stall = nil
	}
	for _, rc := range c.reports {
		rc.conn.Close()
	}
	c.reports = nil
	c.mu.Unlock()
	c.wg.Wait()
	return err
}

func (c *Coordinator) serve() {
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return
		}
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			c.handle(conn)
		}()
	}
}

func (c *Coordinator) handle(conn net.Conn) {
	conn.SetDeadline(time.Now().Add(c.cfg.Timeout))
	f, err := dist.ReadWireFrame(conn)
	if err != nil {
		conn.Close()
		return
	}
	switch f.Kind {
	case dist.FrameDead:
		var rep Report
		if json.Unmarshal(f.Payload, &rep) != nil {
			conn.Close()
			return
		}
		c.addReport(conn, rep)
	case dist.FrameClaim:
		var req ClaimRequest
		if json.Unmarshal(f.Payload, &req) != nil {
			conn.Close()
			return
		}
		c.serveClaim(conn, req)
	default:
		conn.Close()
	}
}

// addReport registers one survivor. The survivor whose report completes
// the round (every rank but one accounted for) runs the decision on its
// handler goroutine; everyone else's connection parks until the decision
// writes their plan.
//
// A report from an epoch whose round has already closed is answered at
// once with an error plan and never parked. It comes from the rank that
// round declared dead: a fault between two live ranks makes all n ranks
// report, the round closes at n-1, and the last rank is replaced. Parked,
// its report would count in the next round's elimination, or arm the disk
// escalation's stall clock.
func (c *Coordinator) addReport(conn net.Conn, rep Report) {
	c.mu.Lock()
	if rep.Epoch < c.epoch {
		epoch := c.epoch
		c.mu.Unlock()
		dist.WriteJSONFrame(conn, dist.FrameClaim, Plan{Dead: -1, Epoch: epoch,
			Err: fmt.Sprintf("rank %d reported a fault of epoch %d, whose recovery round has closed; the cluster runs as epoch %d", rep.Rank, rep.Epoch, epoch)})
		conn.Close()
		return
	}
	c.reports = append(c.reports, reportConn{conn, rep})
	seen := c.reported()
	if len(seen) < c.n-1 {
		// Keep the connection parked until the round completes. With the
		// disk escalation armed, (re)start the stall clock: if the round
		// never completes — two or more ranks will never report — the timer
		// escalates to a whole-cluster disk restore.
		if c.cfg.DiskDir != "" {
			if c.stall == nil {
				c.stall = time.AfterFunc(c.cfg.StallWait, c.escalate)
			} else {
				c.stall.Reset(c.cfg.StallWait)
			}
		}
		c.mu.Unlock()
		return
	}
	if c.stall != nil {
		c.stall.Stop()
		c.stall = nil
	}
	round := c.reports
	c.reports = nil
	c.epoch++
	epoch := c.epoch
	c.mu.Unlock()

	c.decide(round, seen, epoch)
}

// reported is the set of ranks the open round's reports account for. The
// caller holds c.mu.
func (c *Coordinator) reported() map[int]bool {
	seen := map[int]bool{}
	for _, rc := range c.reports {
		seen[rc.rep.Rank] = true
	}
	return seen
}

// escalate fires when a partial round stalls: two or more ranks are
// missing, so the round can never complete by elimination. The survivors on
// hand are decided as they stand instead of waiting forever.
func (c *Coordinator) escalate() {
	c.mu.Lock()
	if len(c.reports) == 0 {
		c.mu.Unlock()
		return // the round completed (or was taken) before the timer ran
	}
	seen := c.reported()
	if c.n-len(seen) < 2 {
		// Exactly one rank missing means a normal round is about to
		// complete; this firing raced the final report. Re-arm and wait.
		if c.stall != nil {
			c.stall.Reset(c.cfg.StallWait)
		}
		c.mu.Unlock()
		return
	}
	round := c.reports
	c.reports = nil
	c.stall = nil
	c.epoch++
	epoch := c.epoch
	c.mu.Unlock()

	c.decide(round, seen, epoch)
}

// decide runs one recovery round for the k >= 1 ranks that never reported:
// declare them dead, agree the restart generation, hand every survivor its
// plan, park one claim per dead rank and respawn each. A lone dead rank
// restarts from the newest generation its guard's memory bank holds, and
// the guard's copy rides the control plane to the replacement; two or more
// (a buddy pair died together, so no bank covers them) restart from the
// newest generation every rank holds on disk, which each process reads from
// the shared checkpoint directory itself.
func (c *Coordinator) decide(round []reportConn, seen map[int]bool, epoch int) {
	defer func() {
		for _, rc := range round {
			rc.conn.Close()
		}
	}()
	var missing []int
	for id := 0; id < c.n; id++ {
		if !seen[id] {
			missing = append(missing, id)
		}
	}
	base := Plan{Dead: -1, Epoch: epoch}
	abort := func(format string, args ...any) {
		base.Err = fmt.Sprintf(format, args...)
		for _, rc := range round {
			dist.WriteJSONFrame(rc.conn, dist.FrameClaim, base)
		}
	}
	guard := -1 // the report whose ward bank sources a lone dead rank's state
	switch {
	case epoch > c.cfg.MaxRounds:
		abort("recovery round %d exceeds the %d-round cap", epoch, c.cfg.MaxRounds)
		return
	case len(missing) == 0:
		abort("every rank reported the fault, so none is dead to replace")
		return
	case len(missing) == 1:
		base.Dead = missing[0]
		base.RestartGen, guard = restartGen(round, base.Dead)
	default:
		base.DeadRanks, base.Disk = missing, c.cfg.DiskDir
		base.RestartGen = DiskRestartGen(c.cfg.DiskDir, c.n)
	}
	rdv, err := ReserveAddr(c.cfg.RendezvousHost)
	if err != nil {
		abort("reserving a fresh rendezvous: %v", err)
		return
	}
	base.Rendezvous = rdv

	for i, rc := range round {
		p := base
		p.SendState = i == guard
		dist.WriteJSONFrame(rc.conn, dist.FrameClaim, p)
	}
	parked := claim{plan: base}
	parked.plan.DeadRanks = nil
	if guard >= 0 {
		f, err := dist.ReadWireFrame(round[guard].conn)
		if err != nil || f.Kind != dist.FrameState {
			base.Err = fmt.Sprintf("guard upload failed: %v", err)
		} else {
			parked.state = &f
			// Acknowledge so the guard can close its connection and rebuild.
			dist.WriteJSONFrame(round[guard].conn, dist.FrameClaim, struct{}{})
		}
	}
	for i := 0; i < len(missing) && base.Err == ""; i++ {
		// Park the claim before starting the replacement, so it can never
		// race an empty slot.
		parked.plan.Dead = missing[i]
		c.mu.Lock()
		c.claims[missing[i]] = parked
		c.mu.Unlock()
		if err := c.cfg.Respawn(parked.plan); err != nil {
			base.Err = fmt.Sprintf("respawn of rank %d failed: %v", missing[i], err)
		}
	}
	if c.cfg.OnDecision != nil {
		c.cfg.OnDecision(base)
	}
}

// serveClaim answers a replacement process's claim with the plan parked for
// its rank and, when a guard's memory bank sourced the restart generation,
// the relayed snapshot.
func (c *Coordinator) serveClaim(conn net.Conn, req ClaimRequest) {
	defer conn.Close()
	c.mu.Lock()
	parked, ok := c.claims[req.Rank]
	delete(c.claims, req.Rank)
	c.mu.Unlock()
	if !ok {
		dist.WriteJSONFrame(conn, dist.FrameClaim, Plan{Err: fmt.Sprintf("no recovery round is waiting for rank %d", req.Rank)})
		return
	}
	if err := dist.WriteJSONFrame(conn, dist.FrameClaim, parked.plan); err != nil {
		return
	}
	if parked.state != nil {
		dist.WriteWireFrame(conn, *parked.state)
	}
}

// restartGen picks the newest generation that every surviving rank has
// banked for itself and some survivor guards for the dead rank, and the
// index of that guard's report. Generation 0 — rebuild from the
// deterministic initial state, no guard needed (-1) — is always feasible,
// so recovery never gets stuck; it just recomputes more.
func restartGen(round []reportConn, dead int) (gen, guard int) {
	selfGens := map[int]map[int]bool{} // rank -> set of banked gens
	guardOf := map[int]int{}           // gen -> a report guarding dead at it
	survivors := []int{}
	for i, rc := range round {
		for id, gens := range rc.rep.SelfGens {
			if selfGens[id] == nil {
				selfGens[id] = map[int]bool{}
			}
			for _, g := range gens {
				selfGens[id][g] = true
			}
		}
		for _, g := range rc.rep.WardGens[dead] {
			if _, ok := guardOf[g]; !ok {
				guardOf[g] = i
			}
		}
		survivors = append(survivors, rc.rep.Rank)
	}
	sorted := make([]int, 0, len(guardOf))
	for g := range guardOf {
		sorted = append(sorted, g)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(sorted)))
	for _, g := range sorted {
		ok := g > 0
		for _, id := range survivors {
			if !selfGens[id][g] {
				ok = false
				break
			}
		}
		if ok {
			return g, guardOf[g]
		}
	}
	return 0, -1
}

// ReserveAddr reserves a free port on host for a cluster's ranks to
// rendezvous at, by binding and immediately releasing it for rank 0's
// process to bind — at launch (stencilrun -launch, the serve scheduler) and
// after every recovery. The ranks retry their dial, so start order does not
// matter; another process taking the port in the handover window fails the
// bootstrap loudly, not silently.
func ReserveAddr(host string) (string, error) {
	ln, err := net.Listen("tcp", net.JoinHostPort(host, "0"))
	if err != nil {
		return "", fmt.Errorf("resilience: cannot reserve a rendezvous port on %s: %w", host, err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr, nil
}
