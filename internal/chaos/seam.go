package chaos

import (
	"time"

	"stencilabft/internal/dist"
	"stencilabft/internal/num"
)

// Transport-seam injection: a dist.Transport wrapper that works on any
// backend. Faults here act on whole messages, above the wire: a Drop
// suppresses the Send entirely (the receiver's timeout turns it into a
// clean classified fault — there is no wire layer to heal it; on the
// channel backend the next round's strip arriving in its place fails the
// receive at once), a
// Partition drops a window of consecutive messages on the edge, a Delay
// holds the sending rank before the Send, and a Stall sleeps a rank — the
// straggler. Delay and Stall are absorbed by the lockstep barrier and
// must leave the result bit-identical; Drop and Partition must end in a
// classified *dist.Fault, never a hang (configure a receive timeout:
// dist.Options.RecvTimeout). Faults act on the sending side only: the wrapper embeds the
// backend and overrides Send and SendCkpt, so every receive, the barrier
// and the rest of the contract are the backend's own and a wrapped cluster
// runs the same overlap schedule as an unwrapped one.
type Transport[T num.Float] struct {
	dist.Transport[T] // the wrapped backend
	in                *Injector
	geo               dist.Decomp
	ring              bool
}

// Wrap layers seam-level fault injection over any transport backend. The
// rank-grid shape (the same arguments dist.Options.NewTransport receives)
// lets the wrapper resolve each Send's destination rank for edge matching.
func Wrap[T num.Float](tr dist.Transport[T], in *Injector, ranksX, ranksY int, ring bool) *Transport[T] {
	return &Transport[T]{Transport: tr, in: in, geo: dist.Decomp{RanksX: ranksX, RanksY: ranksY}, ring: ring}
}

// apply runs the seam faults for one outgoing message on the edge
// from → to and reports whether the message should be suppressed.
func (t *Transport[T]) apply(from, to int) (suppress bool) {
	st := t.in.edge(from, to)
	st.mu.Lock()
	idx := st.count
	st.count++
	var sleep time.Duration
	for _, f := range st.faults {
		if !st.fires(f, idx) {
			continue
		}
		switch f.Type {
		case Drop:
			t.in.drops.Add(1)
			suppress = true
		case Partition:
			t.in.partitions.Add(1)
			suppress = true
		case Delay:
			t.in.delays.Add(1)
			sleep += time.Duration(f.Ms) * time.Millisecond
		}
	}
	st.mu.Unlock()
	t.stall(from)
	if sleep > 0 {
		time.Sleep(sleep)
	}
	return suppress
}

// stall sleeps the rank if a Stall fault fires on its send counter.
func (t *Transport[T]) stall(rank int) {
	st := t.in.rank(rank)
	st.mu.Lock()
	idx := st.count
	st.count++
	var sleep time.Duration
	for _, f := range st.faults {
		if st.fires(f, idx) {
			t.in.stalls.Add(1)
			sleep += time.Duration(f.Ms) * time.Millisecond
		}
	}
	st.mu.Unlock()
	if sleep > 0 {
		time.Sleep(sleep)
	}
}

// Send forwards the strip unless a seam fault suppresses it.
func (t *Transport[T]) Send(from int, d dist.Dir, data []T) {
	to, _ := t.geo.Neighbor(from, d, t.ring)
	if t.apply(from, to) {
		// A backend that stamps strips with their round (the channel
		// backend) is told the strip was lost, so its receiver fails on the
		// next round's strip instead of taking it for this round's.
		if l, ok := t.Transport.(interface{ Lose(from int, d dist.Dir) }); ok {
			l.Lose(from, d)
		}
		return
	}
	t.Transport.Send(from, d, data)
}

// SendCkpt forwards the snapshot unless a seam fault suppresses it — buddy
// checkpoint traffic rides the same edges and is diced by the same
// counters.
func (t *Transport[T]) SendCkpt(from int, d dist.Dir, gen int, data []T) {
	to, _ := t.geo.Neighbor(from, d, t.ring)
	if t.apply(from, to) {
		return
	}
	t.Transport.SendCkpt(from, d, gen, data)
}
