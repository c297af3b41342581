// Package checkpoint provides the in-memory domain checkpoints the offline
// ABFT protector rolls back to (paper Section 4.2: "lightweight memory copy
// of the current state of the grid and of the checksums"). Costs are
// tracked so the campaign harness can attribute the offline method's
// slowdown to checkpointing versus recomputation, as Figure 11 does.
package checkpoint

import (
	"fmt"

	"stencilabft/internal/grid"
	"stencilabft/internal/num"
)

// Stats counts checkpoint activity.
type Stats struct {
	Saves        int
	Restores     int
	PointsCopied int64
}

// Store checkpoints a domain — a stack of nz layers, a 2-D domain being the
// one-layer stack — with its per-layer verified column checksums and the
// iteration number. The zero value is empty; Save initialises it.
type Store[T num.Float] struct {
	stats     Stats
	valid     bool
	iteration int
	domain    *grid.Grid3D[T]
	b         [][]T
}

// Save records the domain, the per-layer verified checksums and the
// iteration number, replacing any previous checkpoint.
func (s *Store[T]) Save(iter int, g *grid.Grid3D[T], b [][]T) {
	if s.domain == nil || !s.domain.SameShape(g) {
		s.domain = g.Clone()
	} else {
		s.domain.CopyFrom(g)
	}
	if len(s.b) != len(b) {
		s.b = make([][]T, len(b))
	}
	for z := range b {
		if len(s.b[z]) != len(b[z]) {
			s.b[z] = make([]T, len(b[z]))
		}
		copy(s.b[z], b[z])
	}
	s.iteration = iter
	s.valid = true
	s.stats.Saves++
	s.stats.PointsCopied += int64(g.Len())
}

// Valid reports whether a checkpoint is available.
func (s *Store[T]) Valid() bool { return s.valid }

// Iteration returns the iteration number of the stored checkpoint.
func (s *Store[T]) Iteration() int { return s.iteration }

// Restore copies the checkpointed domain into g and the stored per-layer
// checksums into b, returning the checkpoint's iteration number. It panics if
// no checkpoint has been saved — recovering without a checkpoint is a
// protocol violation the caller must prevent.
func (s *Store[T]) Restore(g *grid.Grid3D[T], b [][]T) int {
	if !s.valid {
		panic("checkpoint: restore without a saved checkpoint")
	}
	if !g.SameShape(s.domain) {
		panic(fmt.Sprintf("checkpoint: restore into %v from %v", g, s.domain))
	}
	g.CopyFrom(s.domain)
	for z := range b {
		copy(b[z], s.b[z])
	}
	s.stats.Restores++
	s.stats.PointsCopied += int64(g.Len())
	return s.iteration
}

// Stats returns the accumulated cost counters.
func (s *Store[T]) Stats() Stats { return s.stats }

// Domain exposes the checkpointed domain for region-local recovery (cone
// recomputation reads a window of the saved state without a full restore).
// Callers must treat it as read-only; it panics if nothing was saved.
func (s *Store[T]) Domain() *grid.Grid3D[T] {
	if !s.valid {
		panic("checkpoint: Domain without a saved checkpoint")
	}
	return s.domain
}
