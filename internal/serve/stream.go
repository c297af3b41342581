package serve

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"stencilabft/internal/stats"
)

// Worker protocol v4. A message is a kind byte, its header's length as a
// uvarint, the header, and the attachments the header announces, in a
// fixed order:
//
//	'E' n <n bytes: eventHeader>  <s bytes: stats.Stats> <g bytes: grid cells> <m bytes: trace>
//	'Q' n <n bytes: request JSON> <k bytes: the spec document>
//
// An event's header is a binary record, written and read by the field walk
// stats.Stats' own binary form uses (stats.AppendFields): a few tens of
// bytes the host decodes without a text scan, one event at a time. The
// request header, one a job and carrying a placement's chaos plan, stays a
// JSON document. What the
// host only relays travels as an attachment: the canonical spec document
// behind a request; the counters behind a "stats" or "done" event
// (stats.Stats.AppendBinary); the result grid (or a placed rank's tile)
// behind a "done" event, as little-endian IEEE-754 bits at the job's native
// element width (the internal/dist codec); and, for a placed rank asked for
// it, its trace.
const (
	msgEvent   = 'E'
	msgRequest = 'Q'

	// maxAttachment caps an announced attachment so a corrupt header cannot
	// make the reader allocate without bound.
	maxAttachment = 1 << 30
	// maxStatsAttach caps a stats attachment, which is tens of bytes plus
	// the topology name.
	maxStatsAttach = 1 << 16
	// maxHeader caps a header; an event's is tens of bytes plus its error
	// text, a request's a few kilobytes at most.
	maxHeader = 1 << 20
)

// The write side sends each message, header and attachments, as one write
// through the stream's reused buffer; an attachment over directAttach (a
// large result grid, a trace) goes straight from its own slice after the
// buffered bytes, so the buffer never grows to hold it. A worker holds its
// "stats" events and writes them out in bursts: a held event goes out with
// the first message of the job that finds holdFor passed since the request
// arrived or the last write-out, maxHeld events held, or is any other event
// (done, error, ckpt), which every job ends with. So a job still streams
// one stats event per iteration, in bursts at most maxHeld events or
// holdFor (plus the iteration in flight) apart, and none is held once the
// job has ended. A host's Send always writes at once.
const (
	directAttach = 4 << 10
	holdFor      = 10 * time.Millisecond
	maxHeld      = 32
)

// stream is one end of the protocol over a byte pipe. The host side calls
// Send and Recv (both Worker implementations embed it); WorkerMain calls
// readRequest and writeEvent.
type stream struct {
	r         *bufio.Reader
	w         io.Writer
	maxAttach int         // maxAttachment; the fuzz target lowers it
	statsBuf  []byte      // a stats attachment, decoded as soon as it is read
	hdrR      eventHeader // the event header being decoded

	out     []byte           // messages not yet written: the held stats events, then the one being sent
	hdrW    eventHeader      // the event header being encoded
	head    []byte           // an encoded header, before its length prefix
	statsW  []byte           // a stats attachment being encoded
	held    int              // stats events in out
	lastOut time.Time        // when the current request arrived or out was last written
	now     func() time.Time // the clock: time.Now
}

func newStream(r io.Reader, w io.Writer) *stream {
	return &stream{r: bufio.NewReader(r), w: w, maxAttach: maxAttachment, now: time.Now}
}

type requestHeader struct {
	JobRequest
	Attach int `json:"attach"`
}

// eventHeader is a WorkerEvent as its header carries it, in the field
// walk's declaration order: the event's scalars, which of its optional
// parts are present, the grid's shape and the checkpoint, and the lengths
// of the attachments that follow.
type eventHeader struct {
	ID, Event string
	Iter      int
	Error     string
	Status    int
	Has       int // hasGrid | hasCkpt
	Grid      gridShape
	Ckpt      Checkpoint
	// StatsAttach, Attach and TraceAttach are the byte lengths of the
	// stats, grid and trace attachments.
	StatsAttach, Attach, TraceAttach int
}

// gridShape is a GridPayload without its cells.
type gridShape struct {
	Nx, Ny, Nz, X0, Y0 int
	Elem               string
}

// The bits of eventHeader.Has.
const (
	hasGrid = 1 << iota
	hasCkpt
)

// Send posts req: its header, then the spec document.
func (s *stream) Send(req JobRequest) error {
	head, err := json.Marshal(requestHeader{req, len(req.Spec)})
	if err != nil {
		return err
	}
	if err := s.put(msgRequest, head, req.Spec); err != nil {
		return err
	}
	return s.flush()
}

// Recv blocks for the next event. A grid's bytes must be exactly what its
// shape and element type announce; Stats, Grid.Raw and Trace are fresh
// values the caller owns.
func (s *stream) Recv() (WorkerEvent, error) {
	head, err := s.readHeader(msgEvent)
	if err != nil {
		return WorkerEvent{}, err
	}
	h := &s.hdrR
	if err := stats.UnmarshalFields(head, h); err != nil {
		return WorkerEvent{}, fmt.Errorf("serve: bad event header: %w", err)
	}
	if h.Has&^(hasGrid|hasCkpt) != 0 {
		return WorkerEvent{}, fmt.Errorf("serve: event header marks unknown parts %#x", h.Has)
	}
	ev := WorkerEvent{ID: h.ID, Event: h.Event, Iter: h.Iter, Error: h.Error, Status: h.Status}
	want := 0
	if h.Has&hasGrid != 0 {
		g := h.Grid
		ev.Grid = &GridPayload{Nx: g.Nx, Ny: g.Ny, Nz: g.Nz, X0: g.X0, Y0: g.Y0, Elem: g.Elem}
		if want, err = ev.Grid.byteLen(); err != nil {
			return WorkerEvent{}, err
		}
	}
	if h.Attach != want {
		return WorkerEvent{}, fmt.Errorf("serve: event announces %d attached bytes, its grid needs %d", h.Attach, want)
	}
	if h.Has&hasCkpt != 0 {
		ck := h.Ckpt
		ev.Ckpt = &ck
	}
	if h.StatsAttach != 0 {
		if ev.Stats, err = s.readStats(h.StatsAttach); err != nil {
			return WorkerEvent{}, err
		}
	}
	if ev.Grid != nil {
		if ev.Grid.Raw, err = s.readAttachment(want); err != nil {
			return WorkerEvent{}, err
		}
	}
	if h.TraceAttach != 0 {
		if ev.Trace, err = s.readAttachment(h.TraceAttach); err != nil {
			return WorkerEvent{}, err
		}
	}
	return ev, nil
}

// readStats reads and decodes an n-byte stats attachment through the
// stream's reused buffer, refusing a length beyond its cap before
// allocating anything.
func (s *stream) readStats(n int) (*stats.Stats, error) {
	if n < 1 || n > maxStatsAttach {
		return nil, fmt.Errorf("serve: announced stats attachment of %d bytes is outside [1, %d]", n, maxStatsAttach)
	}
	if cap(s.statsBuf) < n {
		s.statsBuf = make([]byte, n)
	}
	buf := s.statsBuf[:n]
	if _, err := io.ReadFull(s.r, buf); err != nil {
		return nil, fmt.Errorf("serve: truncated stats attachment (want %d bytes): %w", n, err)
	}
	st := new(stats.Stats)
	if err := st.UnmarshalBinary(buf); err != nil {
		return nil, fmt.Errorf("serve: bad stats attachment: %w", err)
	}
	return st, nil
}

func (s *stream) readRequest() (JobRequest, error) {
	head, err := s.readHeader(msgRequest)
	if err != nil {
		return JobRequest{}, err
	}
	var h requestHeader
	if err := json.Unmarshal(head, &h); err != nil {
		return JobRequest{}, fmt.Errorf("serve: bad request header: %w", err)
	}
	if h.Spec, err = s.readAttachment(h.Attach); err != nil {
		return JobRequest{}, err
	}
	s.lastOut = s.now()
	return h.JobRequest, nil
}

// writeEvent sends ev, or holds it if it is a stats event the hold rule
// lets wait (see holdFor).
func (s *stream) writeEvent(ev WorkerEvent) error {
	h := &s.hdrW
	*h = eventHeader{ID: ev.ID, Event: ev.Event, Iter: ev.Iter, Error: ev.Error, Status: ev.Status, TraceAttach: len(ev.Trace)}
	var st, raw []byte
	if ev.Stats != nil {
		var err error
		if s.statsW, err = ev.Stats.AppendBinary(s.statsW[:0]); err != nil {
			return err
		}
		st = s.statsW
		h.StatsAttach = len(st)
	}
	if g := ev.Grid; g != nil {
		raw = g.Raw
		h.Has |= hasGrid
		h.Grid = gridShape{Nx: g.Nx, Ny: g.Ny, Nz: g.Nz, X0: g.X0, Y0: g.Y0, Elem: g.Elem}
		h.Attach = len(raw)
	}
	if ev.Ckpt != nil {
		h.Has |= hasCkpt
		h.Ckpt = *ev.Ckpt
	}
	var err error
	if s.head, err = stats.AppendFields(s.head[:0], h); err != nil {
		return err
	}
	if err := s.put(msgEvent, s.head, st, raw, ev.Trace); err != nil {
		return err
	}
	if ev.Event == "stats" {
		if s.held++; s.held < maxHeld && s.now().Sub(s.lastOut) < holdFor {
			return nil
		}
	}
	return s.flush()
}

// put appends one message to out. An attachment over directAttach is
// written straight after out's bytes, so a message carrying one takes more
// than one write.
func (s *stream) put(kind byte, head []byte, attach ...[]byte) error {
	s.out = append(binary.AppendUvarint(append(s.out, kind), uint64(len(head))), head...)
	for _, a := range attach {
		if len(a) <= directAttach {
			s.out = append(s.out, a...)
			continue
		}
		if err := s.flush(); err != nil {
			return err
		}
		if _, err := s.w.Write(a); err != nil {
			return err
		}
	}
	return nil
}

// flush writes out everything pending, held events included.
func (s *stream) flush() error {
	s.held, s.lastOut = 0, s.now()
	if len(s.out) == 0 {
		return nil
	}
	_, err := s.w.Write(s.out)
	s.out = s.out[:0]
	return err
}

// readHeader reads the next message's kind and header. A clean end of
// stream between messages is io.EOF; inside one it is an error. The header
// is read straight out of the reader's buffer when it fits, and is valid
// until the next read; a length beyond maxHeader is refused before
// anything of that size is allocated.
func (s *stream) readHeader(kind byte) ([]byte, error) {
	k, err := s.r.ReadByte()
	if err != nil {
		return nil, err
	}
	if k != kind {
		return nil, fmt.Errorf("serve: unknown message kind %#02x (want %q)", k, kind)
	}
	n, err := binary.ReadUvarint(s.r)
	if err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("serve: truncated header length: %w", err)
	}
	if n > maxHeader {
		return nil, fmt.Errorf("serve: announced header of %d bytes exceeds %d", n, maxHeader)
	}
	var head []byte
	if int(n) <= s.r.Size() {
		if head, err = s.r.Peek(int(n)); err == nil {
			s.r.Discard(int(n))
		}
	} else {
		// Grown as the bytes arrive, so a lying length costs what the
		// input holds, not what it announced.
		if head, err = io.ReadAll(io.LimitReader(s.r, int64(n))); err == nil && len(head) < int(n) {
			err = io.ErrUnexpectedEOF
		}
	}
	if err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("serve: truncated header (want %d bytes): %w", n, err)
	}
	return head, nil
}

// readAttachment reads the n bytes a header announced, refusing a length
// beyond the cap before allocating anything.
func (s *stream) readAttachment(n int) ([]byte, error) {
	if n < 0 || n > s.maxAttach {
		return nil, fmt.Errorf("serve: announced attachment of %d bytes is outside [0, %d]", n, s.maxAttach)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(s.r, buf); err != nil {
		return nil, fmt.Errorf("serve: truncated attachment (want %d bytes): %w", n, err)
	}
	return buf, nil
}

// elemSize is the byte width of a wire element type name, 0 if unknown.
func elemSize(elem string) int {
	switch elem {
	case "float32":
		return 4
	case "float64":
		return 8
	}
	return 0
}

// byteLen is the length Raw must have for the payload's shape and element
// type, refusing shapes that are not a grid or exceed the attachment cap.
func (g *GridPayload) byteLen() (int, error) {
	es, nz := elemSize(g.Elem), max(g.Nz, 1)
	if es == 0 || g.Nx < 1 || g.Ny < 1 || g.Nz < 0 ||
		g.Nx > maxAttachment || g.Ny > maxAttachment/g.Nx || nz > maxAttachment/(g.Nx*g.Ny*es) {
		return 0, fmt.Errorf("serve: grid payload %dx%dx%d of %q is not a shape this protocol carries", g.Nx, g.Ny, g.Nz, g.Elem)
	}
	return g.Nx * g.Ny * nz * es, nil
}
