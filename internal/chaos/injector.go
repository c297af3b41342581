package chaos

import (
	"math/rand"
	"sync"
	"sync/atomic"
)

// Injector is the seeded engine one set of faults runs through: it owns
// the per-edge message counters, per-edge RNGs and fault state that must
// survive reconnects (a rebuilt connection continues the same edge's
// counters, so a fault scripted at frame 7 fires exactly once no matter
// how many connections the edge went through).
type Injector struct {
	seed   int64
	faults []Fault

	mu    sync.Mutex
	edges map[edgeID]*edgeState
	ranks map[int]*edgeState // Stall state, keyed by rank

	// Injection tallies by fault type, for soak reports and tests.
	drops, dups, reorders, corrupts, kills, partitions, delays, stalls atomic.Int64
}

type edgeID struct {
	from, to int
}

// edgeState is one edge's (or, for stalls, one rank's) running injection
// state. Each edge is driven by one goroutine at a time (whoever holds the
// TCP edge's lock, or the rank goroutine at the transport seam), but the
// state is mutex-guarded anyway: chaos runs off the hot path by definition, and the lock makes
// the injector safe under any backend's threading.
type edgeState struct {
	mu      sync.Mutex
	count   int64 // messages seen on this edge so far
	rng     *rand.Rand
	faults  []Fault // the injector's faults filtered to this edge
	pending []byte  // frame held back by a Reorder
	partEnd int64   // wall-clock ns until which a wire Partition holds
}

// NewInjector builds the engine for one seam's faults. Every edge derives
// its RNG from the seed and its rank pair, so injections are independent
// across edges yet fully reproducible.
func NewInjector(faults []Fault, seed int64) *Injector {
	return &Injector{
		seed:   seed,
		faults: faults,
		edges:  make(map[edgeID]*edgeState),
		ranks:  make(map[int]*edgeState),
	}
}

// edge returns (creating on first use) the state of the directed edge
// from → to.
func (in *Injector) edge(from, to int) *edgeState {
	in.mu.Lock()
	defer in.mu.Unlock()
	id := edgeID{from, to}
	st, ok := in.edges[id]
	if !ok {
		st = in.newState(int64(from)*1_000_003 + int64(to))
		for _, f := range in.faults {
			if f.Type != Stall && f.matchesEdge(from, to) {
				st.faults = append(st.faults, f)
			}
		}
		in.edges[id] = st
	}
	return st
}

// rank returns (creating on first use) the Stall state of one rank.
func (in *Injector) rank(id int) *edgeState {
	in.mu.Lock()
	defer in.mu.Unlock()
	st, ok := in.ranks[id]
	if !ok {
		st = in.newState(int64(id)*2_000_029 + 1)
		for _, f := range in.faults {
			if f.Type == Stall && f.Rank == id {
				st.faults = append(st.faults, f)
			}
		}
		in.ranks[id] = st
	}
	return st
}

func (in *Injector) newState(salt int64) *edgeState {
	return &edgeState{rng: rand.New(rand.NewSource(in.seed*6364136223846793005 + salt))}
}

// fires reports whether f triggers on the message with index idx, rolling
// the edge's RNG in probabilistic mode.
func (st *edgeState) fires(f Fault, idx int64) bool {
	if f.Prob > 0 {
		return st.rng.Float64() < f.Prob
	}
	lo, hi := f.window()
	return idx >= int64(lo) && idx < int64(hi)
}

// Stats reports how many injections of each type fired so far — the soak
// report, and what tests assert to prove the run exercised anything.
func (in *Injector) Stats() map[string]int64 {
	out := map[string]int64{}
	for _, e := range []struct {
		name string
		n    *atomic.Int64
	}{
		{Drop, &in.drops}, {Dup, &in.dups}, {Reorder, &in.reorders},
		{Corrupt, &in.corrupts}, {KillConn, &in.kills},
		{Partition, &in.partitions}, {Delay, &in.delays}, {Stall, &in.stalls},
	} {
		if v := e.n.Load(); v > 0 {
			out[e.name] = v
		}
	}
	return out
}

// Total reports the total number of injections fired.
func (in *Injector) Total() int64 {
	var t int64
	for _, v := range in.Stats() {
		t += v
	}
	return t
}
