package chaos

import (
	"errors"
	"fmt"
	"net"

	"stencilabft/internal/dist"
)

// Wire-level injection: a net.Conn wrapper installed via
// dist.TCPConfig.WrapConn. The TCP transport writes exactly one sealed
// frame per Write call, so the wrapper is frame-aware without buffering: it
// reads the kind byte straight from the header, counts data frames per
// edge, and applies the two faults a real connection can suffer — a frame
// corrupted past the TCP checksum, which the frame CRC catches, and a
// connection that dies (killconn). Each fails its edge as a classified
// *dist.Fault, which buddy recovery survives with a bit-identical result.

// errInjected is the write error surfaced by a killconn injection —
// recognisably chaos, never mistaken for a real network error in logs.
var errInjected = errors.New("chaos: injected connection failure")

// WrapConn returns the dist.TCPConfig.WrapConn hook that applies this
// injector's wire faults to every outbound edge connection the transport
// dials; an edge's frames are counted across the cluster incarnations of
// one process, so a fault scripted at frame 7 fires once.
func (in *Injector) WrapConn() func(conn net.Conn, from, to int, d dist.Dir) net.Conn {
	return func(conn net.Conn, from, to int, d dist.Dir) net.Conn {
		return &chaosConn{Conn: conn, in: in, st: in.edge(from, to)}
	}
}

type chaosConn struct {
	net.Conn
	in *Injector
	st *edgeState
}

// frame kinds mirrored from the dist wire format (offset 3 of the header).
// The hello is uncounted and fault-exempt.
const (
	kindOffset = 3
	kindHello  = 1
	headerSize = 28
)

func (c *chaosConn) Write(b []byte) (int, error) {
	if len(b) < headerSize || b[0] != 'S' || b[1] != 'B' || b[kindOffset] == kindHello {
		return c.Conn.Write(b)
	}
	st := c.st
	st.mu.Lock()
	idx := st.count
	st.count++
	for _, f := range st.faults {
		if !st.fires(f, idx) {
			continue
		}
		switch f.Type {
		case Corrupt:
			// Flip one bit in a clone: b is the transport's wire buffer.
			cp := append([]byte(nil), b...)
			pos := 4 + st.rng.Intn(12) // a CRC-covered header field
			if len(cp) > headerSize {
				pos = headerSize + st.rng.Intn(len(cp)-headerSize) // a payload bit
			}
			cp[pos] ^= byte(1) << uint(st.rng.Intn(8))
			st.mu.Unlock()
			c.in.corrupts.Add(1)
			return c.Conn.Write(cp)

		case KillConn:
			st.mu.Unlock()
			c.in.kills.Add(1)
			c.Conn.Close()
			return 0, fmt.Errorf("%w (killconn)", errInjected)
		}
	}
	st.mu.Unlock()
	return c.Conn.Write(b)
}
