package resilience

import (
	"encoding/json"
	"fmt"
	"net"
	"time"

	"stencilabft/internal/dist"
	"stencilabft/internal/num"
)

// The recovery control plane: when a rank process dies, every surviving
// process reports the fault to the coordinator (the process that already
// served the bootstrap rendezvous — rank 0's host under stencilrun
// -launch, or any designated process otherwise) and blocks until the
// coordinator answers with a Plan. The coordinator identifies the dead
// rank by elimination once all survivors have reported, picks the newest
// checkpoint generation every survivor can restore and some survivor
// guards for the dead rank, respawns the dead rank as a fresh process,
// streams the buddy copy there, and hands everyone a fresh rendezvous
// address for the rebuilt transport. Messages ride the dist wire format
// (FrameDead reports, FrameClaim plans/requests, FrameState snapshots), so
// the control endpoint rejects foreign traffic exactly like a halo edge.

// Report is a surviving process's fault report.
type Report struct {
	// Rank is the rank this process hosts.
	Rank int `json:"rank"`
	// Epoch is the incarnation of the cluster the fault surfaced in; a
	// report of an epoch whose round has closed is refused (see
	// Coordinator.addReport).
	Epoch int `json:"epoch"`
	// Suspect is the peer rank the observed fault points at, -1 if the
	// fault did not name one. Corroborating only — the coordinator decides
	// by elimination, which also covers faults first observed as timeouts.
	Suspect int `json:"suspect"`
	// Gen is the barrier generation the fault surfaced at.
	Gen int `json:"gen"`
	// SelfGens lists the checkpoint generations each hosted rank has banked
	// for itself; WardGens the generations banked per guarded ward.
	SelfGens map[int][]int `json:"selfGens"`
	WardGens map[int][]int `json:"wardGens"`
}

// Plan is the coordinator's recovery decision, sent to every survivor and
// to each dead rank's replacement.
type Plan struct {
	// Dead is the rank declared dead this round; in the plan a replacement
	// claims, the rank it must host.
	Dead int `json:"dead"`
	// RestartGen is the iteration every rank rolls back to (0 = rebuild
	// from the deterministic initial state).
	RestartGen int `json:"restartGen"`
	// Epoch numbers the post-recovery incarnation of the cluster, and
	// Rendezvous is the fresh bootstrap address its transport meets at.
	Epoch      int    `json:"epoch"`
	Rendezvous string `json:"rendezvous"`
	// SendState instructs the receiving process to upload its guarded copy
	// of Dead at RestartGen, which the coordinator relays to the
	// replacement process.
	SendState bool `json:"sendState,omitempty"`
	// DeadRanks lists every rank declared dead this round when more than one
	// died — the double-death escalation, where buddy banks cannot cover the
	// loss and the cluster restores from disk. Dead is -1 in the survivors'
	// copy of such a plan.
	DeadRanks []int `json:"deadRanks,omitempty"`
	// Disk is the shared checkpoint directory every rank restores
	// RestartGen from (see RankBase) — set only on escalation plans. No
	// state frames ride the control plane when Disk is set.
	Disk string `json:"disk,omitempty"`
	// Err aborts recovery with a reason (e.g. no restorable generation).
	Err string `json:"err,omitempty"`
}

// DefaultTimeout bounds a control-plane exchange when no timeout is
// configured: the coordinator's connections, a survivor's wait for its plan,
// and the derived waits (CoordinatorConfig.StallWait, the gang runner's
// wait for a respawn).
const DefaultTimeout = 30 * time.Second

// ClaimRequest is what a respawned process sends the coordinator to claim
// the plan (and relayed state) parked for its rank.
type ClaimRequest struct {
	Rank int `json:"rank"`
}

// dialControl dials the coordinator with retry until the deadline — the
// coordinator may itself be mid-recovery of its own cluster when the first
// survivors start reporting.
func dialControl(addr string, deadline time.Duration) (net.Conn, error) {
	expire := time.Now().Add(deadline)
	var lastErr error
	for {
		remain := time.Until(expire)
		if remain <= 0 {
			return nil, fmt.Errorf("resilience: gave up dialing the coordinator at %s after %v: %w", addr, deadline, lastErr)
		}
		conn, err := net.DialTimeout("tcp", addr, remain)
		if err == nil {
			return conn, nil
		}
		lastErr = err
		time.Sleep(20 * time.Millisecond)
	}
}

// ReportFault sends rep to the coordinator at addr and blocks for the
// recovery plan. If the plan asks this process to upload its guarded copy
// of the dead rank, stateOf(dead, restartGen) supplies it and the upload
// happens on the same connection before returning.
func ReportFault[T num.Float](addr string, rep Report, stateOf func(rank, gen int) []T, timeout time.Duration) (Plan, error) {
	conn, err := dialControl(addr, timeout)
	if err != nil {
		return Plan{}, err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(timeout))
	if err := dist.WriteJSONFrame(conn, dist.FrameDead, rep); err != nil {
		return Plan{}, fmt.Errorf("resilience: sending the fault report: %w", err)
	}
	plan, err := readPlan(conn)
	if err != nil {
		return Plan{}, err
	}
	if plan.Err != "" {
		return plan, fmt.Errorf("resilience: coordinator aborted recovery: %s", plan.Err)
	}
	if plan.SendState {
		data := stateOf(plan.Dead, plan.RestartGen)
		if data == nil {
			return plan, fmt.Errorf("resilience: coordinator wants rank %d at generation %d but this process does not guard it", plan.Dead, plan.RestartGen)
		}
		if err := dist.WriteStateFrame(conn, plan.RestartGen, data); err != nil {
			return plan, fmt.Errorf("resilience: uploading rank %d's buddy copy: %w", plan.Dead, err)
		}
		// Wait for the coordinator to confirm the relay completed before
		// tearing the connection down.
		if _, err := dist.ReadWireFrame(conn); err != nil {
			return plan, fmt.Errorf("resilience: waiting for the upload acknowledgement: %w", err)
		}
	}
	return plan, nil
}

// RequestClaim is the respawned process's entry: it claims rank's
// recovery plan from the coordinator and, for a non-zero restart
// generation, the dead rank's snapshot.
func RequestClaim[T num.Float](addr string, rank int, timeout time.Duration) (Plan, []T, error) {
	conn, err := dialControl(addr, timeout)
	if err != nil {
		return Plan{}, nil, err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(timeout))
	if err := dist.WriteJSONFrame(conn, dist.FrameClaim, ClaimRequest{Rank: rank}); err != nil {
		return Plan{}, nil, fmt.Errorf("resilience: sending the claim: %w", err)
	}
	plan, err := readPlan(conn)
	if err != nil {
		return Plan{}, nil, err
	}
	if plan.Err != "" {
		return plan, nil, fmt.Errorf("resilience: coordinator rejected the claim: %s", plan.Err)
	}
	if plan.RestartGen == 0 || plan.Disk != "" {
		// Nothing to stream: the process rebuilds from the initial state, or
		// restores from the shared checkpoint directory itself.
		return plan, nil, nil
	}
	f, err := dist.ReadWireFrame(conn)
	if err != nil {
		return plan, nil, fmt.Errorf("resilience: waiting for rank %d's snapshot: %w", rank, err)
	}
	data, gen, err := dist.DecodeStateFrame[T](f)
	if err != nil {
		return plan, nil, err
	}
	if gen != plan.RestartGen {
		return plan, nil, fmt.Errorf("resilience: snapshot is generation %d, plan restarts at %d", gen, plan.RestartGen)
	}
	return plan, data, nil
}

// readPlan reads one FrameClaim plan frame.
func readPlan(conn net.Conn) (Plan, error) {
	f, err := dist.ReadWireFrame(conn)
	if err != nil {
		return Plan{}, fmt.Errorf("resilience: waiting for the recovery plan: %w", err)
	}
	if f.Kind != dist.FrameClaim {
		return Plan{}, fmt.Errorf("resilience: coordinator answered with frame kind %d, want a plan", f.Kind)
	}
	var plan Plan
	if err := json.Unmarshal(f.Payload, &plan); err != nil {
		return Plan{}, fmt.Errorf("resilience: recovery plan payload: %w", err)
	}
	return plan, nil
}
