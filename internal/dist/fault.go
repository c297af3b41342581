package dist

import "fmt"

// FaultClass places a transport failure on the recovery ladder: how hard
// the fault is determines how expensive the response must be. Transient
// wire faults (dropped, duplicated, reordered or corrupted frames, a
// broken connection) never surface as a Fault at all — the TCP backend
// heals them in place by reconnecting and replaying its resend window.
// Only faults the transport could not absorb reach this classification.
type FaultClass int

const (
	// ClassUnknown is an unclassified failure (geometry mismatches,
	// protocol violations, legacy error paths).
	ClassUnknown FaultClass = iota
	// ClassTimeout: the peer stayed silent past the configured IO timeout
	// — a stuck or stalled rank — or, on the channel backend, a round's
	// strip never arrived and the next round's came in its place. The
	// process is alive as far as anyone knows; recovery treats it like a
	// death because lockstep cannot continue without it.
	ClassTimeout
	// ClassCorrupt: a payload failed validation after the wire-level CRC
	// had already passed (element-width mismatch, malformed control
	// payload) — corruption the reconnect path cannot heal.
	ClassCorrupt
	// ClassPermanent: the edge was declared dead — the connection dropped
	// and no reconnect arrived within the death deadline, or the peer
	// process demonstrably exited. The buddy-recovery ladder takes over.
	ClassPermanent
)

// String names the class for error messages and reports.
func (c FaultClass) String() string {
	switch c {
	case ClassTimeout:
		return "timeout"
	case ClassCorrupt:
		return "corrupt"
	case ClassPermanent:
		return "permanent"
	default:
		return "unknown"
	}
}

// Fault is the structured form of a transport failure: which hosted rank
// observed it, on which edge, against which peer, and at which barrier
// generation. Recv and Barrier panic with a *Fault under the TCP backend's
// MPI_ERRORS_ARE_FATAL semantics; Cluster.RunRecover catches it and hands
// it to the resilience layer, which needs exactly these fields to report
// the failure to the recovery coordinator (the peer is the suspect, the
// generation bounds the rollback, the class picks the rung of the
// recovery ladder).
type Fault struct {
	// Rank is the hosted rank whose Recv or Barrier failed.
	Rank int
	// Dir is the edge direction the failure surfaced on.
	Dir Dir
	// Peer is the geometric neighbour behind that edge — the dead-rank
	// suspect. -1 when the edge has no neighbour or the peer is unknown.
	Peer int
	// Gen is the barrier generation at the time of the failure: completed
	// lockstep iterations within the current Run under the classic
	// schedule, completed halo-exchange rounds (iterations / k) under
	// depth-k ghost zones.
	Gen int
	// Barrier reports whether the failure surfaced in the token exchange
	// rather than a halo receive.
	Barrier bool
	// Class is the failure's rung on the recovery ladder (see FaultClass).
	Class FaultClass
	// Err is the underlying cause (connection error, timeout, poisoned
	// edge).
	Err error
}

// Error renders the fault the way the historical wrapped errors did, so
// operators and tests keep seeing rank, direction and generation; a
// classified fault names its class so logs show which recovery rung fired.
func (f *Fault) Error() string {
	what := "recv"
	if f.Barrier {
		what = "barrier"
	}
	if f.Class != ClassUnknown {
		what += " (" + f.Class.String() + ")"
	}
	return fmt.Sprintf("dist: %s for rank %d from %v at generation %d: %v", what, f.Rank, f.Dir, f.Gen, f.Err)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (f *Fault) Unwrap() error { return f.Err }
