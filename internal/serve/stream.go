package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"stencilabft/internal/stats"
)

// Worker protocol v3. Every message is one JSON line; a line may announce
// attachments, and those raw bytes follow the newline in a fixed order:
//
//	{"id":…,"event":"done","iter":…,"grid":{…},"attach":n,"statsAttach":s,"traceAttach":m}\n
//	<s bytes: stats.Stats, binary form> <n bytes: grid cells> <m bytes: trace>
//
// What the host only relays travels as an attachment, which encoding/json
// never scans: the canonical spec document behind a request; the counters
// behind a "stats" or "done" event (stats.Stats.AppendBinary, tens of bytes
// where their JSON is hundreds, and decoded without a text scan); the
// result grid (or a placed rank's tile) behind a "done" event, as
// little-endian IEEE-754 bits at the job's native element width (the
// internal/dist codec); and, for a placed rank asked for it, its trace.
const (
	// maxAttachment caps an announced attachment so a corrupt line cannot
	// make the reader allocate without bound.
	maxAttachment = 1 << 30
	// maxStatsAttach caps a stats attachment, which is tens of bytes plus
	// the topology name.
	maxStatsAttach = 1 << 16
	// maxLine caps a message line; real ones are at most a few
	// kilobytes.
	maxLine = 1 << 20
)

// The write side sends each message, line and attachments, as one write
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
	maxAttach int    // maxAttachment; the fuzz target lowers it
	statsBuf  []byte // a stats attachment, decoded as soon as it is read

	out     bytes.Buffer     // messages not yet written: the held stats events, then the one being sent
	enc     *json.Encoder    // encodes message lines into out
	statsW  []byte           // a stats attachment being encoded
	held    int              // stats events in out
	lastOut time.Time        // when the current request arrived or out was last written
	now     func() time.Time // the clock: time.Now
}

func newStream(r io.Reader, w io.Writer) *stream {
	s := &stream{r: bufio.NewReader(r), w: w, maxAttach: maxAttachment, now: time.Now}
	s.enc = json.NewEncoder(&s.out)
	return s
}

type requestLine struct {
	JobRequest
	Attach int `json:"attach"`
}

type eventLine struct {
	WorkerEvent
	Attach      int `json:"attach,omitempty"`
	StatsAttach int `json:"statsAttach,omitempty"`
	TraceAttach int `json:"traceAttach,omitempty"`
}

// Send posts req: its line, then the spec document.
func (s *stream) Send(req JobRequest) error {
	if err := s.put(requestLine{req, len(req.Spec)}, req.Spec); err != nil {
		return err
	}
	return s.flush()
}

// Recv blocks for the next event. A grid's bytes must be exactly what its
// shape and element type announce; Stats, Grid.Raw and Trace are fresh
// values the caller owns.
func (s *stream) Recv() (WorkerEvent, error) {
	var l eventLine
	if err := s.readLine(&l); err != nil {
		return WorkerEvent{}, err
	}
	want := 0
	if l.Grid != nil {
		var err error
		if want, err = l.Grid.byteLen(); err != nil {
			return WorkerEvent{}, err
		}
	}
	if l.Attach != want {
		return WorkerEvent{}, fmt.Errorf("serve: event announces %d attached bytes, its grid needs %d", l.Attach, want)
	}
	if l.StatsAttach != 0 {
		st, err := s.readStats(l.StatsAttach)
		if err != nil {
			return WorkerEvent{}, err
		}
		l.Stats = st
	}
	if l.Grid != nil {
		raw, err := s.readAttachment(want)
		if err != nil {
			return WorkerEvent{}, err
		}
		l.Grid.Raw = raw
	}
	if l.TraceAttach != 0 {
		var err error
		if l.Trace, err = s.readAttachment(l.TraceAttach); err != nil {
			return WorkerEvent{}, err
		}
	}
	return l.WorkerEvent, nil
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
	var l requestLine
	if err := s.readLine(&l); err != nil {
		return JobRequest{}, err
	}
	spec, err := s.readAttachment(l.Attach)
	if err != nil {
		return JobRequest{}, err
	}
	l.Spec = spec
	s.lastOut = s.now()
	return l.JobRequest, nil
}

// writeEvent sends ev, or holds it if it is a stats event the hold rule
// lets wait (see holdFor).
func (s *stream) writeEvent(ev WorkerEvent) error {
	var st, raw []byte
	if ev.Stats != nil {
		var err error
		if s.statsW, err = ev.Stats.AppendBinary(s.statsW[:0]); err != nil {
			return err
		}
		st = s.statsW
	}
	if ev.Grid != nil {
		raw = ev.Grid.Raw
	}
	if err := s.put(eventLine{ev, len(raw), len(st), len(ev.Trace)}, st, raw, ev.Trace); err != nil {
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
func (s *stream) put(line any, attach ...[]byte) error {
	if err := s.enc.Encode(line); err != nil {
		return err
	}
	for _, a := range attach {
		if len(a) <= directAttach {
			s.out.Write(a)
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
	if s.out.Len() == 0 {
		return nil
	}
	_, err := s.w.Write(s.out.Bytes())
	s.out.Reset()
	return err
}

// readLine reads one bounded line and decodes it into v. A clean end of
// stream between messages is io.EOF; inside a line it is an error.
func (s *stream) readLine(v any) error {
	var line []byte
	for {
		part, err := s.r.ReadSlice('\n')
		if err == nil && line == nil {
			line = part // the usual case: the whole line sits in the buffer
			break
		}
		line = append(line, part...)
		if err == nil {
			break
		}
		if errors.Is(err, io.EOF) && len(line) > 0 {
			err = io.ErrUnexpectedEOF
		}
		if !errors.Is(err, bufio.ErrBufferFull) {
			return err
		}
		if len(line) > maxLine {
			return fmt.Errorf("serve: protocol line exceeds %d bytes", maxLine)
		}
	}
	if err := json.Unmarshal(line, v); err != nil {
		return fmt.Errorf("serve: bad protocol line: %w", err)
	}
	return nil
}

// readAttachment reads the n bytes a line announced, refusing a length
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
