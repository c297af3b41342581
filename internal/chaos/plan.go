// Package chaos is the deterministic fault-injection harness of the
// transport stack: a JSON fault plan describes wire and seam faults
// (corrupted frames, killed connections, dropped messages, edge partitions,
// delayed messages, stalled ranks), and a seeded injector applies them at
// one of two seams — a frame-aware net.Conn wrapper hooked into
// dist.TCPConfig.WrapConn (the two faults a real TCP connection can suffer,
// each failing its edge as a classified *dist.Fault) and a dist.Transport
// wrapper that works on any backend (scheduling faults the lockstep
// absorbs, and message drops that surface as classified faults).
//
// Everything is deterministic under a seed: the same plan, seed and
// workload injects the same faults at the same frame indices, so a CI
// failure replays locally. Probabilistic fields (prob) turn the same plans
// into soak mode — every frame diced independently per edge, still
// reproducible from the seed.
package chaos

import (
	"encoding/json"
	"fmt"
	"os"
)

// Fault types. Wire faults (injected below the TCP transport; each fails
// its edge as a classified fault): Corrupt, KillConn. Seam faults (injected
// above any transport): Drop, Partition (surface as classified faults),
// Delay, Stall (absorbed by the lockstep). A TCP connection never drops,
// duplicates or reorders bytes inside itself, so no fault does that below
// the transport.
const (
	Drop      = "drop"      // message never sent (seam)
	Delay     = "delay"     // message held for Ms before sending (seam)
	Corrupt   = "corrupt"   // one bit flipped after sealing (wire only)
	KillConn  = "killconn"  // connection closed mid-stream (wire only)
	Partition = "partition" // Count consecutive messages on the edge vanish (seam)
	Stall     = "stall"     // rank sleeps Ms before a send — a straggler (seam)
)

// Edge names a directed halo edge by global rank ids.
type Edge struct {
	From int `json:"from"`
	To   int `json:"to"`
}

// Fault is one scripted injection. At/Count select deterministic targets
// by the edge's (or rank's) running message index; Prob instead dices
// every message independently — soak mode. Exactly one of the two styles
// per fault: Prob > 0 ignores At/Count.
type Fault struct {
	// Type is one of the fault-type constants above.
	Type string `json:"type"`
	// Edge restricts the fault to one directed edge; nil applies it to
	// every edge (allowed only with Prob, where determinism per edge still
	// holds through the per-edge RNG).
	Edge *Edge `json:"edge,omitempty"`
	// At is the 0-based per-edge message index the fault starts firing at
	// (for Stall: the per-rank send index).
	At int `json:"at,omitempty"`
	// Count is how many consecutive messages are affected (default 1).
	Count int `json:"count,omitempty"`
	// Ms is the duration in milliseconds of a Delay or Stall.
	Ms int `json:"ms,omitempty"`
	// Prob, when > 0, fires the fault on each message independently with
	// this probability (seeded, reproducible) instead of At/Count.
	Prob float64 `json:"prob,omitempty"`
	// Rank is the rank a Stall applies to.
	Rank int `json:"rank,omitempty"`
}

// window returns the deterministic [At, At+n) firing window.
func (f Fault) window() (lo, hi int) {
	n := f.Count
	if n < 1 {
		n = 1
	}
	return f.At, f.At + n
}

// matchesEdge reports whether the fault applies to the directed edge
// from → to.
func (f Fault) matchesEdge(from, to int) bool {
	return f.Edge == nil || (f.Edge.From == from && f.Edge.To == to)
}

// Plan is a parsed fault plan.
type Plan struct {
	Faults []Fault `json:"faults"`
}

// Parse decodes and validates a JSON fault plan.
func Parse(data []byte) (*Plan, error) {
	var p Plan
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("chaos: parsing fault plan: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// Load reads and parses a fault plan file.
func Load(path string) (*Plan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("chaos: reading fault plan: %w", err)
	}
	return Parse(data)
}

// Validate checks every fault for schema errors: unknown types, missing
// targets, nonsensical parameters.
func (p *Plan) Validate() error {
	if len(p.Faults) == 0 {
		return fmt.Errorf("chaos: fault plan has no faults")
	}
	for i, f := range p.Faults {
		where := fmt.Sprintf("chaos: fault %d (%s)", i, f.Type)
		switch f.Type {
		case Drop, Corrupt, KillConn, Partition, Delay:
			if f.Edge == nil && f.Prob <= 0 {
				return fmt.Errorf("%s: needs an edge (or prob > 0 to dice every edge)", where)
			}
		case Stall:
			if f.Rank < 0 {
				return fmt.Errorf("%s: needs a rank to stall", where)
			}
		case "dup", "reorder":
			return fmt.Errorf("%s: a TCP connection delivers its bytes once and in order, so no transport fault duplicates or reorders a frame; the type is gone (drop a message at the seam with %q)", where, Drop)
		default:
			return fmt.Errorf("chaos: fault %d has unknown type %q", i, f.Type)
		}
		switch f.Type {
		case Delay, Stall:
			if f.Ms <= 0 {
				return fmt.Errorf("%s: needs ms > 0", where)
			}
		}
		if f.At < 0 || f.Count < 0 {
			return fmt.Errorf("%s: at/count must be non-negative", where)
		}
		if f.Prob < 0 || f.Prob > 1 {
			return fmt.Errorf("%s: prob %v outside [0, 1]", where, f.Prob)
		}
		if f.Edge != nil && (f.Edge.From < 0 || f.Edge.To < 0) {
			return fmt.Errorf("%s: edge ranks must be non-negative", where)
		}
	}
	return nil
}

// Split partitions the plan's faults by injection seam for the given
// backend. Corrupt and KillConn inject below the transport and need a wire
// (the TCP transport): on the channel backend, which has no frames to
// corrupt, they are a configuration error, not a no-op. Every other fault
// injects at the transport seam on either backend.
func (p *Plan) Split(wire bool) (seam, conn []Fault, err error) {
	for i, f := range p.Faults {
		switch f.Type {
		case Corrupt, KillConn:
			if !wire {
				return nil, nil, fmt.Errorf("chaos: fault %d (%s) needs a wire-level transport (tcp); the channel backend has no frames to corrupt", i, f.Type)
			}
			conn = append(conn, f)
		default:
			seam = append(seam, f)
		}
	}
	return seam, conn, nil
}
