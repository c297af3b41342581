package dist

// The socket backend's barrier: generation-tagged tokens exchanged with the
// neighbours over the halo edges.

import "fmt"

// tokenMsg is a decoded barrier token.
type tokenMsg struct {
	gen   uint32
	round uint16
}

// Barrier blocks until every rank of the grid — hosted here or in peer
// processes — has arrived at the current generation. The last hosted rank
// to arrive runs the token exchange for all hosted ranks, then releases
// them together.
func (t *TCPTransport[T]) Barrier() { t.bar.await() }

// exchangeTokens runs the neighbour token rounds of barrier generation gen
// on behalf of every hosted rank. Each round posts one token per outbound
// edge and collects one per inbound edge; diameter-many rounds make the
// barrier global (see the type comment).
func (t *TCPTransport[T]) exchangeTokens(gen uint32) error {
	for round := 1; round <= t.rounds; round++ {
		for _, id := range t.local {
			for d := Dir(0); d < NumDirs; d++ {
				oe, ok := t.outs[edgeKey{id, d}]
				if !ok {
					continue
				}
				t.post(oe, frame{kind: frameToken, from: uint16(id), to: uint16(oe.to), dir: byte(d), gen: gen, round: uint16(round)}, nil)
			}
		}
		for _, id := range t.local {
			for d := Dir(0); d < NumDirs; d++ {
				box, ok := t.boxes[edgeKey{id, d}]
				if !ok {
					continue
				}
				tok, _, err := boxWait(t.ioDur(), "the barrier token", box, box.tok, nil, nil)
				if err != nil {
					return &Fault{Rank: id, Dir: d, Peer: t.peerOf(id, d), Gen: int(gen), Barrier: true, Class: classOf(err),
						Err: fmt.Errorf("round %d/%d: %w", round, t.rounds, err)}
				}
				if tok.gen != gen || int(tok.round) != round {
					return &Fault{Rank: id, Dir: d, Peer: t.peerOf(id, d), Gen: int(gen), Barrier: true,
						Err: fmt.Errorf("token for generation %d round %d, want generation %d round %d (lockstep violated)",
							tok.gen, tok.round, gen, round)}
				}
			}
		}
	}
	return nil
}
