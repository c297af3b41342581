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
	// Timeout bounds each control connection's I/O and a respawned
	// process's window to claim its plan. Default 30s.
	Timeout time.Duration
	// Respawn, when non-nil, is called once per recovery round to start a
	// replacement process for the dead rank (the plan describes what the
	// newcomer must claim via RequestAdoption). Nil selects adopt mode: the
	// dead rank's guard process absorbs the rank instead.
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
	// detection cascades outward from the dead rank one transport death
	// deadline per hop (a survivor not adjacent to the victim only faults
	// when its faulted neighbours tear down their connections), so the gap
	// is about one death deadline. Default dist.DefaultDeathDeadline plus
	// Timeout/4 of margin; deployments running a custom DeathDeadline
	// should scale StallWait with it.
	StallWait time.Duration
	// OnDecision, when non-nil, observes each recovery plan as it is
	// published — the launch parent's diagnostics hook.
	OnDecision func(Plan)
}

// Coordinator runs the rendezvous-led recovery protocol's deciding side:
// it collects fault reports from surviving processes, declares the missing
// rank dead by elimination once every other rank is accounted for, agrees
// the rollback generation, places the dead rank (respawn or adoption),
// relays the buddy snapshot where needed, and issues the fresh rendezvous
// the rebuilt transport bootstraps through.
type Coordinator struct {
	cfg CoordinatorConfig
	n   int
	ln  net.Listener

	mu          sync.Mutex
	epoch       int
	reports     []reportConn
	adoptCh     chan pendingAdoption
	stall       *time.Timer  // armed while a partial round waits (DiskDir set)
	diskPending map[int]Plan // escalation plans parked for respawned ranks

	wg sync.WaitGroup
}

type reportConn struct {
	conn net.Conn
	rep  Report
}

type pendingAdoption struct {
	plan  Plan
	state dist.WireFrame // valid when plan.RestartGen > 0
}

// StartCoordinator binds the control listener and begins serving.
func StartCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	d := dist.Decomp{RanksX: cfg.RanksX, RanksY: cfg.RanksY}
	if d.NumRanks() < 2 {
		return nil, fmt.Errorf("resilience: a %s grid cannot lose a rank and keep running", d)
	}
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	if cfg.RendezvousHost == "" {
		cfg.RendezvousHost = "127.0.0.1"
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	if cfg.MaxRounds <= 0 {
		cfg.MaxRounds = 3
	}
	if cfg.StallWait <= 0 {
		cfg.StallWait = dist.DefaultDeathDeadline + cfg.Timeout/4
	}
	ln := cfg.Listener
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", cfg.Addr)
		if err != nil {
			return nil, fmt.Errorf("resilience: control listener %s: %w", cfg.Addr, err)
		}
	}
	c := &Coordinator{cfg: cfg, n: d.NumRanks(), ln: ln, adoptCh: make(chan pendingAdoption, 1)}
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

// Close stops the coordinator. In-flight recovery rounds are abandoned.
func (c *Coordinator) Close() error {
	err := c.ln.Close()
	c.mu.Lock()
	if c.stall != nil {
		c.stall.Stop()
		c.stall = nil
	}
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
	case dist.FrameAdopt:
		var req AdoptRequest
		if json.Unmarshal(f.Payload, &req) != nil {
			conn.Close()
			return
		}
		c.serveAdoption(conn, req)
	default:
		conn.Close()
	}
}

// addReport registers one survivor. The survivor whose report completes
// the round (every rank but one accounted for) runs the decision on its
// handler goroutine; everyone else's connection parks until the decision
// writes their plan.
func (c *Coordinator) addReport(conn net.Conn, rep Report) {
	c.mu.Lock()
	c.reports = append(c.reports, reportConn{conn, rep})
	seen := map[int]bool{}
	for _, rc := range c.reports {
		for _, id := range rc.rep.Ranks {
			seen[id] = true
		}
	}
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

// escalate fires when a partial round stalls: two or more ranks are
// missing, so no single-death decision can ever complete. The survivors on
// hand get a whole-cluster disk-restore plan instead of waiting forever.
func (c *Coordinator) escalate() {
	c.mu.Lock()
	if len(c.reports) == 0 {
		c.mu.Unlock()
		return // the round completed (or was taken) before the timer ran
	}
	seen := map[int]bool{}
	for _, rc := range c.reports {
		for _, id := range rc.rep.Ranks {
			seen[id] = true
		}
	}
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

	c.decideDouble(round, seen, epoch)
}

// decideDouble runs the escalation round: every unreported rank is
// declared dead at once, the restart generation is the newest every rank
// holds on disk, and the dead tiles are either dealt out to survivors
// (adopt mode) or respawned. No state crosses the control plane — each
// process restores its ranks from the shared checkpoint directory.
func (c *Coordinator) decideDouble(round []reportConn, seen map[int]bool, epoch int) {
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

	base := Plan{Dead: -1, DeadRanks: missing, Epoch: epoch, Disk: c.cfg.DiskDir}
	if epoch > c.cfg.MaxRounds {
		base.Err = fmt.Sprintf("recovery round %d exceeds the %d-round cap", epoch, c.cfg.MaxRounds)
		c.publish(round, base, -1)
		return
	}
	base.RestartGen = DiskRestartGen(c.cfg.DiskDir, c.n)
	rdv, err := ReserveAddr(c.cfg.RendezvousHost)
	if err != nil {
		base.Err = fmt.Sprintf("reserving a fresh rendezvous: %v", err)
		c.publish(round, base, -1)
		return
	}
	base.Rendezvous = rdv

	if c.cfg.Respawn == nil {
		// Adopt mode: deal the dead ranks round-robin across the surviving
		// processes; each adopter restores its new wards from disk.
		for i, rc := range round {
			p := base
			for j, id := range missing {
				if j%len(round) == i {
					p.AdoptRanks = append(p.AdoptRanks, id)
				}
			}
			dist.WriteJSONFrame(rc.conn, dist.FrameAdopt, p)
		}
		if c.cfg.OnDecision != nil {
			c.cfg.OnDecision(base)
		}
		return
	}

	// Respawn mode: survivors get the base plan; each dead rank's personal
	// plan is parked before its replacement starts, so a claim can never
	// race an empty slot.
	plans := make([]Plan, 0, len(missing))
	c.mu.Lock()
	if c.diskPending == nil {
		c.diskPending = make(map[int]Plan)
	}
	for _, id := range missing {
		p := base
		p.Dead = id
		p.DeadRanks = nil
		p.AdoptRanks = nil
		p.Adopt = true
		c.diskPending[id] = p
		plans = append(plans, p)
	}
	c.mu.Unlock()
	for _, rc := range round {
		dist.WriteJSONFrame(rc.conn, dist.FrameAdopt, base)
	}
	for _, p := range plans {
		if err := c.cfg.Respawn(p); err != nil {
			if c.cfg.OnDecision != nil {
				base.Err = fmt.Sprintf("respawn of rank %d failed: %v", p.Dead, err)
				c.cfg.OnDecision(base)
			}
			return
		}
	}
	if c.cfg.OnDecision != nil {
		c.cfg.OnDecision(base)
	}
}

// decide runs one recovery round: declare the dead rank, agree the restart
// generation, place the tile, publish the plans, relay state.
func (c *Coordinator) decide(round []reportConn, seen map[int]bool, epoch int) {
	defer func() {
		for _, rc := range round {
			rc.conn.Close()
		}
	}()
	dead := -1
	for id := 0; id < c.n; id++ {
		if !seen[id] {
			dead = id
			break
		}
	}

	base := Plan{Dead: dead, Epoch: epoch}
	if epoch > c.cfg.MaxRounds {
		base.Err = fmt.Sprintf("recovery round %d exceeds the %d-round cap", epoch, c.cfg.MaxRounds)
		c.publish(round, base, -1)
		return
	}
	base.RestartGen = restartGen(round, dead)
	rdv, err := ReserveAddr(c.cfg.RendezvousHost)
	if err != nil {
		base.Err = fmt.Sprintf("reserving a fresh rendezvous: %v", err)
		c.publish(round, base, -1)
		return
	}
	base.Rendezvous = rdv

	guard := c.guardIndex(round, dead, base.RestartGen)
	if guard < 0 {
		base.Err = fmt.Sprintf("no survivor guards rank %d at generation %d", dead, base.RestartGen)
		c.publish(round, base, -1)
		return
	}

	if c.cfg.Respawn == nil {
		// Adopt mode: the guard absorbs the dead rank; its buddy copy is
		// already in the guard's ward bank, so no state crosses the wire.
		c.publish(round, base, guard)
		if c.cfg.OnDecision != nil {
			c.cfg.OnDecision(base)
		}
		return
	}

	// Respawn mode: everyone gets the base plan; the guard also uploads the
	// dead rank's snapshot, which the coordinator parks for the replacement
	// process to claim.
	guardPlan := base
	guardPlan.SendState = base.RestartGen > 0
	for i, rc := range round {
		p := base
		if i == guard {
			p = guardPlan
		}
		dist.WriteJSONFrame(rc.conn, dist.FrameAdopt, p)
	}
	pending := pendingAdoption{plan: base}
	pending.plan.Adopt = true
	if guardPlan.SendState {
		f, err := dist.ReadWireFrame(round[guard].conn)
		if err != nil || f.Kind != dist.FrameState {
			if c.cfg.OnDecision != nil {
				base.Err = fmt.Sprintf("guard upload failed: %v", err)
				c.cfg.OnDecision(base)
			}
			return
		}
		pending.state = f
		// Acknowledge so the guard can close its connection and rebuild.
		dist.WriteJSONFrame(round[guard].conn, dist.FrameAdopt, struct{}{})
	}
	// Park the adoption before starting the replacement, so the claim can
	// never race an empty slot.
	select {
	case <-c.adoptCh: // drop a stale unclaimed round
	default:
	}
	c.adoptCh <- pending
	if err := c.cfg.Respawn(pending.plan); err != nil && c.cfg.OnDecision != nil {
		base.Err = fmt.Sprintf("respawn failed: %v", err)
		c.cfg.OnDecision(base)
		return
	}
	if c.cfg.OnDecision != nil {
		c.cfg.OnDecision(base)
	}
}

// publish sends every survivor its plan; round[adopter] (when >= 0) gets
// the adopt bit.
func (c *Coordinator) publish(round []reportConn, base Plan, adopter int) {
	for i, rc := range round {
		p := base
		p.Adopt = i == adopter
		dist.WriteJSONFrame(rc.conn, dist.FrameAdopt, p)
	}
}

// serveAdoption answers a replacement process's claim with the parked plan
// and snapshot.
func (c *Coordinator) serveAdoption(conn net.Conn, req AdoptRequest) {
	defer conn.Close()
	// An escalation plan parked for this rank wins: the replacement restores
	// from disk, so there is no state frame to relay.
	c.mu.Lock()
	if p, ok := c.diskPending[req.Rank]; ok {
		delete(c.diskPending, req.Rank)
		c.mu.Unlock()
		dist.WriteJSONFrame(conn, dist.FrameAdopt, p)
		return
	}
	c.mu.Unlock()
	var pending pendingAdoption
	select {
	case pending = <-c.adoptCh:
	case <-time.After(c.cfg.Timeout):
		dist.WriteJSONFrame(conn, dist.FrameAdopt, Plan{Err: fmt.Sprintf("no recovery round is waiting for rank %d", req.Rank)})
		return
	}
	if pending.plan.Dead != req.Rank {
		c.adoptCh <- pending
		dist.WriteJSONFrame(conn, dist.FrameAdopt, Plan{Err: fmt.Sprintf("pending recovery is for rank %d, not rank %d", pending.plan.Dead, req.Rank)})
		return
	}
	if err := dist.WriteJSONFrame(conn, dist.FrameAdopt, pending.plan); err != nil {
		return
	}
	if pending.plan.RestartGen > 0 {
		dist.WriteWireFrame(conn, pending.state)
	}
}

// restartGen picks the newest generation that every surviving rank has
// banked for itself and some survivor guards for the dead rank.
// Generation 0 — rebuild from the deterministic initial state — is always
// feasible, so recovery never gets stuck; it just recomputes more.
func restartGen(round []reportConn, dead int) int {
	selfGens := map[int]map[int]bool{} // rank -> set of banked gens
	deadGens := map[int]bool{}
	survivors := []int{}
	for _, rc := range round {
		for id, gens := range rc.rep.SelfGens {
			if selfGens[id] == nil {
				selfGens[id] = map[int]bool{}
			}
			for _, g := range gens {
				selfGens[id][g] = true
			}
		}
		for _, g := range rc.rep.WardGens[dead] {
			deadGens[g] = true
		}
		survivors = append(survivors, rc.rep.Ranks...)
	}
	candidates := map[int]bool{}
	for g := range deadGens {
		candidates[g] = true
	}
	sorted := make([]int, 0, len(candidates))
	for g := range candidates {
		sorted = append(sorted, g)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(sorted)))
	for _, g := range sorted {
		ok := true
		for _, id := range survivors {
			if !selfGens[id][g] {
				ok = false
				break
			}
		}
		if ok {
			return g
		}
	}
	return 0
}

// guardIndex finds the report that can source the dead rank's state: for a
// non-zero restart generation, the process whose ward bank holds it; for
// generation 0, the process hosting the dead rank's buddy (adoption
// placement still wants the geometric guard).
func (c *Coordinator) guardIndex(round []reportConn, dead, gen int) int {
	if gen > 0 {
		for i, rc := range round {
			for _, g := range rc.rep.WardGens[dead] {
				if g == gen {
					return i
				}
			}
		}
		return -1
	}
	d := dist.Decomp{RanksX: c.cfg.RanksX, RanksY: c.cfg.RanksY}
	buddy, _, err := BuddyOf(d, dead)
	if err != nil {
		return -1
	}
	for i, rc := range round {
		for _, id := range rc.rep.Ranks {
			if id == buddy {
				return i
			}
		}
	}
	return -1
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
