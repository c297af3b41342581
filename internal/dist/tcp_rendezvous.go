package dist

// Rendezvous and bootstrap of the socket backend: the address-book exchange
// that turns N processes into one wired cluster, and the first dial of every
// outbound edge.

import (
	"encoding/json"
	"fmt"
	"net"
	"sync/atomic"
	"time"
)

// exchangeAddresses produces the rank → data-listener address book. With
// every rank local the book is trivial; otherwise the rank-0 host serves
// the rendezvous point and everyone else registers with it.
func (t *TCPTransport[T]) exchangeAddresses(cfg TCPConfig) (map[int]string, error) {
	self := t.Addr()
	if cfg.Rendezvous == "" && cfg.RendezvousListener == nil {
		book := make(map[int]string, t.geo.NumRanks())
		for i := 0; i < t.geo.NumRanks(); i++ {
			book[i] = self
		}
		return book, nil
	}
	if t.local[0] == 0 {
		ln := cfg.RendezvousListener
		if ln == nil {
			var err error
			ln, err = net.Listen("tcp", cfg.Rendezvous)
			if err != nil {
				return nil, fmt.Errorf("dist: rendezvous listener %s: %w", cfg.Rendezvous, err)
			}
		}
		return serveRendezvous(ln, t.geo.NumRanks(), t.local, self, cfg.DialTimeout)
	}
	return registerAtRendezvous(cfg.Rendezvous, t.local, self, cfg.DialTimeout, &t.dialRetries)
}

// serveRendezvous runs the bootstrap service on the rank-0 host: collect a
// register frame from every peer process until all n ranks are accounted
// for, then publish the complete address book to every registered
// connection. The listener is closed before returning — rendezvous is a
// bootstrap, not a runtime dependency.
func serveRendezvous(ln net.Listener, n int, selfRanks []int, selfAddr string, deadline time.Duration) (map[int]string, error) {
	defer ln.Close()
	book := make(map[int]string, n)
	for _, id := range selfRanks {
		book[id] = selfAddr
	}
	expire := time.Now().Add(deadline)
	var peers []net.Conn
	defer func() {
		for _, c := range peers {
			c.Close()
		}
	}()
	// Bound the whole collection by the deadline: a TCP listener takes it
	// directly; any other (wrapped) listener gets a watchdog that closes
	// it at expiry, failing Accept with the same x-of-n diagnosis.
	tl, hasDeadline := ln.(*net.TCPListener)
	if !hasDeadline {
		watchdog := time.AfterFunc(time.Until(expire), func() { ln.Close() })
		defer watchdog.Stop()
	}
	for len(book) < n {
		if hasDeadline {
			tl.SetDeadline(expire)
		}
		conn, err := ln.Accept()
		if err != nil {
			return nil, fmt.Errorf("dist: rendezvous: %d of %d ranks registered before the %v deadline: %w", len(book), n, deadline, err)
		}
		conn.SetDeadline(expire)
		f, err := readFrame(conn)
		if err != nil || f.kind != frameRegister {
			// Not a peer: a port scanner, health probe, or stray connect
			// on the (possibly well-known) rendezvous port. Drop it and
			// keep accepting — only registered peers can fail the
			// bootstrap.
			conn.Close()
			continue
		}
		var reg registerMsg
		if err := json.Unmarshal(f.payload, &reg); err != nil {
			conn.Close()
			continue
		}
		if err := admitRegistration(book, reg, n); err != nil {
			nack, _ := json.Marshal(nackMsg{Error: err.Error()})
			conn.Write(appendFrame(nil, frame{kind: frameNack, payload: nack}))
			conn.Close()
			return nil, fmt.Errorf("dist: rendezvous: %w", err)
		}
		for _, id := range reg.Ranks {
			book[id] = reg.Addr
		}
		peers = append(peers, conn)
	}
	payload, err := json.Marshal(bookMsg{Addrs: book})
	if err != nil {
		return nil, err
	}
	buf := appendFrame(nil, frame{kind: frameBook, payload: payload})
	for _, c := range peers {
		if _, err := c.Write(buf); err != nil {
			return nil, fmt.Errorf("dist: rendezvous: publishing the address book: %w", err)
		}
	}
	return book, nil
}

// admitRegistration validates one register message against the book so far.
func admitRegistration(book map[int]string, reg registerMsg, n int) error {
	if reg.Addr == "" || len(reg.Ranks) == 0 {
		return fmt.Errorf("registration without ranks or address")
	}
	for _, id := range reg.Ranks {
		if id < 0 || id >= n {
			return fmt.Errorf("registered rank %d outside the %d-rank grid", id, n)
		}
		if prev, dup := book[id]; dup {
			return fmt.Errorf("rank %d registered twice (%s and %s)", id, prev, reg.Addr)
		}
	}
	return nil
}

// registerAtRendezvous dials the rendezvous service (with retry, since the
// rank-0 host may not be up yet), registers this process's ranks and
// listener address, and blocks until the full address book arrives.
func registerAtRendezvous(addr string, ranks []int, selfAddr string, deadline time.Duration, retries *atomic.Int64) (map[int]string, error) {
	conn, err := dialRetry(addr, deadline, retries)
	if err != nil {
		return nil, fmt.Errorf("dist: rendezvous at %s: %w", addr, err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(deadline))
	payload, err := json.Marshal(registerMsg{Ranks: ranks, Addr: selfAddr})
	if err != nil {
		return nil, err
	}
	if _, err := conn.Write(appendFrame(nil, frame{kind: frameRegister, payload: payload})); err != nil {
		return nil, fmt.Errorf("dist: rendezvous registration: %w", err)
	}
	f, err := readFrame(conn)
	if err != nil {
		return nil, fmt.Errorf("dist: rendezvous: waiting for the address book: %w", err)
	}
	switch f.kind {
	case frameBook:
		var book bookMsg
		if err := json.Unmarshal(f.payload, &book); err != nil {
			return nil, fmt.Errorf("dist: rendezvous address book payload: %w", err)
		}
		return book.Addrs, nil
	case frameNack:
		var nack nackMsg
		json.Unmarshal(f.payload, &nack)
		return nil, fmt.Errorf("dist: rendezvous rejected registration: %s", nack.Error)
	default:
		return nil, fmt.Errorf("dist: rendezvous answered with frame kind %d, want the address book", f.kind)
	}
}

// registerMsg and bookMsg are the rendezvous bootstrap payloads (JSON: the
// bootstrap runs once per process, so self-describing beats compact).
type registerMsg struct {
	Ranks []int  `json:"ranks"`
	Addr  string `json:"addr"`
}

type bookMsg struct {
	Addrs map[int]string `json:"addrs"`
}

type nackMsg struct {
	Error string `json:"error"`
}

// dialRetry dials addr until it succeeds or the deadline passes — the
// connect-retry that lets processes start in any order. Every failed
// attempt is tallied into retries (when non-nil): a non-zero count after a
// successful bootstrap measures how long this process waited for its peers.
func dialRetry(addr string, deadline time.Duration, retries *atomic.Int64) (net.Conn, error) {
	expire := time.Now().Add(deadline)
	var lastErr error
	for attempt := 0; ; attempt++ {
		remain := time.Until(expire)
		if remain <= 0 {
			return nil, fmt.Errorf("gave up connecting to %s after %v (%d attempts): %w", addr, deadline, attempt, lastErr)
		}
		step := dialRetryStep
		if step > remain {
			step = remain
		}
		conn, err := net.DialTimeout("tcp", addr, remain)
		if err == nil {
			return conn, nil
		}
		lastErr = err
		if retries != nil {
			retries.Add(1)
		}
		time.Sleep(step)
	}
}

// dialEdges opens one persistent connection per outbound directed edge of
// the hosted ranks, performs the hello/ack handshake, and starts its
// keepalive goroutine.
func (t *TCPTransport[T]) dialEdges(cfg TCPConfig, book map[int]string) error {
	for _, id := range t.local {
		for d := Dir(0); d < NumDirs; d++ {
			nb, ok := t.geo.Neighbor(id, d, t.ring)
			if !ok {
				continue
			}
			addr, ok := book[nb]
			if !ok {
				return fmt.Errorf("dist: address book has no entry for rank %d (neighbour %v of rank %d)", nb, d, id)
			}
			oe := &outEdge{
				addr:  addr,
				from:  id,
				to:    nb,
				dir:   d,
				hello: appendFrame(nil, frame{kind: frameHello, from: uint16(id), to: uint16(nb), dir: byte(d)}),
			}
			conn, err := dialRetry(addr, cfg.DialTimeout, &t.dialRetries)
			if err != nil {
				return fmt.Errorf("dist: halo edge rank %d --%v--> rank %d: %w", id, d, nb, err)
			}
			conn = t.wrap(conn, oe)
			ack, err := t.handshake(conn, oe, cfg.DialTimeout)
			if err != nil {
				conn.Close()
				return fmt.Errorf("dist: halo edge rank %d --%v--> rank %d: %w", id, d, nb, err)
			}
			oe.conn = conn
			oe.seq = ack - 1
			oe.flushed = ack - 1
			t.outs[edgeKey{id, d}] = oe
			t.track(conn)
			if t.keepalive > 0 {
				t.wg.Add(1)
				go func() {
					defer t.wg.Done()
					t.keepaliveLoop(oe)
				}()
			}
		}
	}
	return nil
}
