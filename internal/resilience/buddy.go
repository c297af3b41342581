package resilience

import (
	"fmt"
	"sync"

	"stencilabft/internal/checkpoint"
	"stencilabft/internal/dist"
	"stencilabft/internal/grid"
	"stencilabft/internal/num"
	"stencilabft/internal/telemetry"
)

// Buddy is the checkpointing engine of one process: every Period
// iterations each hosted rank packs its restartable state (tile plus
// verified checksums, bit-exact), banks it locally, mirrors it to its
// buddy as a ckpt frame on the existing halo edge, and banks the snapshots
// arriving from its wards. The save and the mirror run from the cluster's
// AfterStep seam — after the sweep, before the iteration barrier — so
// checkpoint traffic overlaps the barrier wait instead of serialising with
// compute.
//
// The engine outlives the cluster it instruments: after a recovery the
// runner rewires it onto the rebuilt cluster with Attach, and the banks
// carry the pre-failure snapshots recovery needs.
type Buddy[T num.Float] struct {
	Period int

	mu    sync.Mutex
	cl    *dist.Cluster[T]
	tel   *telemetry.Collector
	self  checkpoint.Bank2D[T] // own snapshots, keyed by hosted rank id
	wards checkpoint.Bank2D[T] // guarded snapshots, keyed by ward rank id

	lens   map[int]int      // hosted rank -> packed state length
	buddy  map[int]dist.Dir // hosted rank -> direction toward its buddy
	inward map[int][]Ward   // hosted rank -> wards whose frames it collects

	diskDir string                // "" = memory-only (the default)
	disk    map[int]*DiskSaver[T] // hosted rank -> its rotation under diskDir
}

// NewBuddy builds the engine with period j (j < 1 disables checkpointing:
// AfterStep becomes a no-op and the banks stay empty).
func NewBuddy[T num.Float](period int, tel *telemetry.Collector) *Buddy[T] {
	return &Buddy[T]{Period: period, tel: tel}
}

// Attach wires the engine onto a (re)built cluster. A cluster whose grid
// has a single rank disables mirroring (nothing to mirror to) but keeps the
// local bank, so disk checkpointing still has a source.
func (b *Buddy[T]) Attach(cl *dist.Cluster[T]) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	// A restore rebases the cluster to a checkpoint generation and reruns
	// from there, so every generation must land on a halo-exchange
	// boundary: under depth-k ghost zones a rank resumed mid-cycle would
	// have no valid boundary shells to sweep from.
	if k := cl.HaloDepth(); k > 1 && b.Period > 0 && b.Period%k != 0 {
		return fmt.Errorf("resilience: checkpoint period %d is not a multiple of the cluster's halo depth %d; restores must land on halo-exchange boundaries (use period %d)",
			b.Period, k, ((b.Period+k-1)/k)*k)
	}
	b.cl = cl
	d := cl.Decomp()
	b.lens = make(map[int]int)
	b.buddy = make(map[int]dist.Dir)
	b.inward = make(map[int][]Ward)
	for _, id := range cl.LocalRanks() {
		b.lens[id] = cl.StateLen(id)
		if d.NumRanks() < 2 {
			continue
		}
		_, dir, err := BuddyOf(d, id)
		if err != nil {
			return err
		}
		b.buddy[id] = dir
		b.inward[id] = WardsOf(d, id)
	}
	return nil
}

// EnableDisk additionally persists every periodic snapshot to a per-rank
// rotation under dir (see RankBase) — the third rung of the recovery
// ladder, reached when a buddy pair dies together and neither memory bank
// survives. Savers are created lazily per hosted rank and persist across
// Attach calls, so a re-built cluster keeps extending the same rotations.
func (b *Buddy[T]) EnableDisk(dir string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.diskDir = dir
	if b.disk == nil {
		b.disk = make(map[int]*DiskSaver[T])
	}
}

// AfterStep is the hook to install as dist.Options.AfterStep. It runs on
// the rank's own goroutine; the banks are mutex-guarded because several
// hosted ranks may checkpoint concurrently.
func (b *Buddy[T]) AfterStep(rank, iter int) {
	gen := iter + 1 // completed iterations after this step — the SetIter rebase value
	if b.Period < 1 || gen%b.Period != 0 {
		return
	}
	rec := b.tel.Recorder(rank)

	// Pack straight into the bank's rotating slot: one serialise instead of
	// a staging copy plus a bank copy. Only the slot rotation needs the
	// mutex — the returned buffer belongs to this hosted rank's newest
	// generation, which nothing reads until the save completes (recovery
	// consults the banks only after every rank goroutine has unwound).
	t0 := rec.Begin()
	b.mu.Lock()
	pack := b.self.SaveSlot(rank, gen, b.lens[rank])
	b.mu.Unlock()
	b.cl.PackState(rank, pack)
	if saver := b.diskSaver(rank); saver != nil {
		// Persist the packed vector as a 1×N snapshot so the whole-cluster
		// fallback can replay even when both halves of a buddy pair die.
		// Best-effort: a full disk must not fail the step — the memory banks
		// still cover single-rank faults.
		g := grid.New[T](len(pack), 1)
		copy(g.Data(), pack)
		_ = saver.Save(gen, g, nil)
	}
	rec.End(telemetry.PhaseCkptSave, t0)

	// Sharing the bank slot with the wire is safe on both backends: the tcp
	// transport serialises into its own frame before returning, and the chan
	// transport's receiver banks a copy before reaching the barrier this
	// round — while the slot itself is not rewritten until two rounds later.
	t0 = rec.Begin()
	tr := b.cl.Transport()
	if dir, ok := b.buddy[rank]; ok {
		tr.SendCkpt(rank, dir, gen, pack)
	}
	for _, w := range b.inward[rank] {
		data, g, err := tr.RecvCkpt(rank, w.Dir)
		if err != nil {
			// The edge died mid-round: keep whatever generations the bank
			// already holds and let the next halo exchange or barrier
			// surface the fault as a *dist.Fault.
			break
		}
		b.mu.Lock()
		b.wards.Save(w.Rank, g, data)
		b.mu.Unlock()
	}
	rec.End(telemetry.PhaseCkptSend, t0)
}

// diskSaver returns (creating lazily) rank's disk rotation, or nil when
// disk persistence is off.
func (b *Buddy[T]) diskSaver(rank int) *DiskSaver[T] {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.diskDir == "" {
		return nil
	}
	s, ok := b.disk[rank]
	if !ok {
		s = NewDiskSaver[T](RankBase(b.diskDir, rank))
		b.disk[rank] = s
	}
	return s
}

// SelfGens lists the retained own-snapshot generations per hosted rank.
func (b *Buddy[T]) SelfGens() map[int][]int {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[int][]int, len(b.lens))
	for id := range b.lens {
		if g := b.self.Gens(id); g != nil {
			out[id] = g
		}
	}
	return out
}

// WardGens lists the retained guarded-snapshot generations per ward rank.
func (b *Buddy[T]) WardGens() map[int][]int {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[int][]int)
	for id := range b.lens {
		for _, w := range b.inward[id] {
			if g := b.wards.Gens(w.Rank); g != nil {
				out[w.Rank] = g
			}
		}
	}
	return out
}

// SelfState returns hosted rank id's banked snapshot at exactly gen, or nil.
func (b *Buddy[T]) SelfState(id, gen int) []T {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.self.Data(id, gen)
}

// WardState returns ward id's banked snapshot at exactly gen, or nil.
func (b *Buddy[T]) WardState(id, gen int) []T {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.wards.Data(id, gen)
}

// Seed banks data as hosted rank id's own snapshot at gen without going
// through a checkpoint round — how a restored state becomes restorable
// again before the next periodic save.
func (b *Buddy[T]) Seed(id, gen int, data []T) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.self.Save(id, gen, data)
}

// Rollback invalidates every banked snapshot newer than gen, in both banks
// — run after the recovery protocol agrees on the restart generation, so
// snapshots from the abandoned timeline cannot satisfy later restores.
func (b *Buddy[T]) Rollback(gen int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.self.Trim(gen)
	b.wards.Trim(gen)
}

// Stats sums the banks' checkpoint cost counters.
func (b *Buddy[T]) Stats() checkpoint.Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := b.self.Stats()
	w := b.wards.Stats()
	s.Saves += w.Saves
	s.Restores += w.Restores
	s.PointsCopied += w.PointsCopied
	return s
}
