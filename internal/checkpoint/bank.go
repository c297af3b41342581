package checkpoint

import "stencilabft/internal/num"

// Bank2D holds the buddy-checkpoint copies a rank keeps — its own snapshot
// plus one per ward (the neighbours whose buddy it is) — with the last two
// generations retained per key. Two generations is the fail-stop minimum:
// a rank can die while the newest checkpoint round is still in flight, in
// which case some survivors hold generation k and others only k-1, and
// recovery rolls the cluster back to the newest generation everyone still
// has. Keys are rank ids; the zero value is empty.
//
// Bank2D is not safe for concurrent use; the resilience layer serialises
// access per hosted rank.
type Bank2D[T num.Float] struct {
	slots map[int]*bankSlot[T]
	stats Stats
}

// bankSlot keeps a key's two most recent snapshots, alternating between two
// entries so a save reuses the evicted generation's storage.
type bankSlot[T num.Float] struct {
	cur, prev bankEntry[T]
}

type bankEntry[T num.Float] struct {
	valid bool
	iter  int
	data  []T
}

// Save records data as key's snapshot at iteration iter, demoting the
// previous newest generation to the retained older one. The data is copied
// in; the caller keeps ownership of its slice.
func (b *Bank2D[T]) Save(key, iter int, data []T) {
	copy(b.SaveSlot(key, iter, len(data)), data)
}

// SaveSlot rotates key's retained generations exactly like Save and
// returns the newest slot's bank-owned buffer, sized to n, for the caller
// to assemble the snapshot in place — Save minus the staging copy, for
// producers that can serialise directly (the buddy engine packs a rank's
// state straight into its slot). The slot is registered as key's iter
// snapshot immediately; the caller must fill it before the snapshot can be
// read back. The cost counters advance as for Save: the caller writes the
// same n points, just without the intermediate buffer.
func (b *Bank2D[T]) SaveSlot(key, iter, n int) []T {
	if b.slots == nil {
		b.slots = make(map[int]*bankSlot[T])
	}
	s, ok := b.slots[key]
	if !ok {
		s = &bankSlot[T]{}
		b.slots[key] = s
	}
	s.prev, s.cur = s.cur, s.prev
	if len(s.cur.data) != n {
		s.cur.data = make([]T, n)
	}
	s.cur.iter = iter
	s.cur.valid = true
	b.stats.Saves++
	b.stats.PointsCopied += int64(n)
	return s.cur.data
}

// Gens lists the iteration numbers of key's retained snapshots, newest
// first. Empty when nothing was saved under key.
func (b *Bank2D[T]) Gens(key int) []int {
	s, ok := b.slots[key]
	if !ok {
		return nil
	}
	var out []int
	if s.cur.valid {
		out = append(out, s.cur.iter)
	}
	if s.prev.valid {
		out = append(out, s.prev.iter)
	}
	return out
}

// Restore copies key's snapshot taken at exactly iteration iter into dst
// and reports whether one was retained. Exact-generation matching is
// deliberate: the recovery protocol has already agreed on the rollback
// iteration, and silently restoring a different one would desynchronise
// the lockstep.
func (b *Bank2D[T]) Restore(key, iter int, dst []T) bool {
	data := b.Data(key, iter)
	if data == nil {
		return false
	}
	copy(dst, data)
	b.stats.Restores++
	b.stats.PointsCopied += int64(len(dst))
	return true
}

// Data exposes key's snapshot at exactly iteration iter without copying —
// how the recovery protocol streams a dead rank's buddy copy onto the wire.
// Callers must treat it as read-only. Nil when not retained.
func (b *Bank2D[T]) Data(key, iter int) []T {
	s, ok := b.slots[key]
	if !ok {
		return nil
	}
	for _, e := range []*bankEntry[T]{&s.cur, &s.prev} {
		if e.valid && e.iter == iter {
			return e.data
		}
	}
	return nil
}

// Trim invalidates every snapshot newer than maxIter, across all keys.
// Recovery calls it after agreeing on a rollback iteration: a snapshot
// taken past the rollback point describes a timeline that no longer exists
// and must not satisfy a later exact-generation restore.
func (b *Bank2D[T]) Trim(maxIter int) {
	for _, s := range b.slots {
		for _, e := range []*bankEntry[T]{&s.cur, &s.prev} {
			if e.valid && e.iter > maxIter {
				e.valid = false
			}
		}
	}
}

// Stats returns the accumulated cost counters across all keys.
func (b *Bank2D[T]) Stats() Stats { return b.stats }
