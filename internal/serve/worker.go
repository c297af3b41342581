// Package serve implements the stencilserve multi-tenant simulation
// service: a JSON/HTTP front-end that accepts wire-form Specs (see the root
// package's WireSpec), schedules them over a persistent pool of worker
// processes, streams per-iteration Stats over SSE, and content-addresses
// finished results so identical submissions are answered from cache.
//
// The package splits into the worker side (this file, speaking the header +
// attachment protocol of stream.go over stdin/stdout) and the host side
// (pool, scheduler, cache, HTTP surface). The same WorkerMain runs as a child
// process of cmd/stencilserve, as a re-exec'd test binary, or in-process
// over an io.Pipe — the scheduler cannot tell the difference, which is what
// makes the service testable without forking in every test.
package serve

import (
	"errors"
	"fmt"
	"io"
	"net/http"

	abft "stencilabft"
	"stencilabft/internal/dist"
	"stencilabft/internal/stats"
)

// JobRequest is one unit of work sent to a worker: the canonical wire-form
// spec plus the run length. Spec follows the request header as its attachment
// (see stream.go), so the document is never re-scanned on the way in. A
// placed request additionally seats the worker as one rank of a
// multi-process cluster (see Placement) — the scheduler's gang fan-out and
// stencilrun -launch both send these.
type JobRequest struct {
	ID         string `json:"id"`
	Spec       []byte `json:"-"`
	Iters      int    `json:"iters"`
	StatsEvery int    `json:"statsEvery,omitempty"` // 0 disables the stats stream

	Place *Placement `json:"place,omitempty"`
}

// WorkerEvent is one message of a worker's reply stream: zero or more
// "stats" and "ckpt" events followed by exactly one terminal "done" or
// "error" event. ID echoes the request so a host can discard stale events
// after a kill. Stats, on "stats" and "done", travels as a binary
// attachment (see stream.go). A placed rank's "done" carries its tile as
// Grid and, if the placement asked, its Chrome trace-event timeline as
// Trace.
type WorkerEvent struct {
	ID     string       `json:"id"`
	Event  string       `json:"event"` // "stats" | "ckpt" | "done" | "error"
	Iter   int          `json:"iter,omitempty"`
	Stats  *stats.Stats `json:"-"`
	Grid   *GridPayload `json:"grid,omitempty"`
	Ckpt   *Checkpoint  `json:"ckpt,omitempty"`
	Trace  []byte       `json:"-"`
	Error  string       `json:"error,omitempty"`
	Status int          `json:"status,omitempty"` // suggested HTTP status for "error"
}

// GridPayload is a result domain as the bits the run produced: Raw holds
// the cells row-major at Elem's width, little-endian (dist.AppendElems), so
// NaN and ±Inf travel like any other value and nothing is widened or parsed
// between worker, scheduler, cache and the HTTP edge. A placed rank returns
// only its tile, at (X0, Y0) of the global domain; the gang runner
// reassembles.
type GridPayload struct {
	Nx   int    `json:"nx"`
	Ny   int    `json:"ny"`
	Nz   int    `json:"nz,omitempty"`
	X0   int    `json:"x0,omitempty"`
	Y0   int    `json:"y0,omitempty"`
	Elem string `json:"elem"`
	Raw  []byte `json:"-"`
}

// StatusFor maps an error from the spec/wire validation surface to the HTTP
// status the service answers with: typed client errors (malformed wire
// documents, invalid specs, thin tiles, bad operators, quota pressure)
// become 4xx, everything else is a 500.
func StatusFor(err error) int {
	switch {
	case err == nil:
		return http.StatusOK
	case errors.Is(err, ErrQuota) || errors.Is(err, ErrBacklog):
		return http.StatusTooManyRequests
	case errors.Is(err, abft.ErrInvalidSpec),
		errors.Is(err, abft.ErrThinTile),
		errors.Is(err, abft.ErrInvalidOp),
		errors.Is(err, abft.ErrUnresolvedUpload),
		errors.Is(err, abft.ErrNotSerializable):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

// WorkerMain is the worker side of the pool protocol: read JobRequests
// from r, run each, and stream WorkerEvents to w until r drains. It returns
// nil on a clean EOF. cmd/stencilserve invokes it under -worker; tests run
// it in-process over pipes or re-exec themselves into it.
func WorkerMain(r io.Reader, w io.Writer) error {
	st := newStream(r, w)
	for {
		req, err := st.readRequest()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return fmt.Errorf("serve: worker cannot read request: %w", err)
		}
		emit := func(ev WorkerEvent) error {
			ev.ID = req.ID
			return st.writeEvent(ev)
		}
		if err := runJob(req, emit); err != nil {
			return err
		}
	}
}

// errorEvent is the terminal event of a job that failed with err.
func errorEvent(err error) WorkerEvent {
	return WorkerEvent{Event: "error", Error: err.Error(), Status: StatusFor(err)}
}

// runJob executes one request, translating every failure into a terminal
// "error" event. The returned error is transport-level only (the host went
// away); job-level problems never kill the worker.
func runJob(req JobRequest, emit func(WorkerEvent) error) error {
	if req.Iters < 0 {
		return emit(WorkerEvent{Event: "error", Status: http.StatusBadRequest,
			Error: fmt.Sprintf("serve: negative iteration count %d", req.Iters)})
	}
	w, err := abft.ParseWireSpec(req.Spec)
	if err != nil {
		return emit(errorEvent(err))
	}
	if w.Elem == "float64" {
		return runTyped[float64](req, w, "float64", emit)
	}
	return runTyped[float32](req, w, "float32", emit)
}

// runTyped is the element-typed job body: resolve the wire spec, attach the
// process-local knobs the wire form deliberately excludes (pool,
// telemetry), run, and return stats plus the result domain. A placed
// request continues in runPlaced.
func runTyped[T abft.Float](req JobRequest, w *abft.WireSpec, elem string, emit func(WorkerEvent) error) (err error) {
	// A transport fault mid-run panics (MPI_ERRORS_ARE_FATAL semantics);
	// surface it as a job error instead of killing the worker loop.
	defer func() {
		if r := recover(); r != nil {
			err = emit(errorEvent(fmt.Errorf("serve: job panicked: %v", r)))
		}
	}()
	spec, err := abft.SpecFromWire[T](w)
	if err != nil {
		return emit(errorEvent(err))
	}
	// The pool is job-local, and WorkerMain serves many jobs from one
	// long-lived process: close it when the job ends or every job leaks
	// GOMAXPROCS-1 parked goroutines for the worker's lifetime.
	pool := abft.NewPool()
	defer pool.Close()
	spec.Pool = pool
	spec.Telemetry = jobTelemetry(req.Place)
	if req.Place != nil {
		return runPlaced(req, spec, elem, emit)
	}
	p, err := abft.Build(spec)
	if err != nil {
		return emit(errorEvent(err))
	}
	// An in-process cluster holds rank goroutines: closed however the job
	// ends, a failed emit (the job killed by its deadline) included.
	if c, ok := p.(io.Closer); ok {
		defer c.Close()
	}
	if err := stepAll(p, req, emit); err != nil {
		return err
	}
	p.Finalize()
	st := p.Stats()
	ev := WorkerEvent{Event: "done", Iter: req.Iters, Stats: &st}
	if g3 := p.Grid3D(); g3 != nil {
		ev.Grid = &GridPayload{Nx: g3.Nx(), Ny: g3.Ny(), Nz: g3.Nz(), Elem: elem, Raw: rawElems(elem, g3.Data())}
	} else if g := p.Grid(); g != nil {
		ev.Grid = &GridPayload{Nx: g.Nx(), Ny: g.Ny(), Elem: elem, Raw: rawElems(elem, g.Data())}
	} else {
		return emit(errorEvent(errors.New("serve: protector exposed no result domain")))
	}
	return emit(ev)
}

// jobTelemetry is a job's telemetry: the phase accumulators Stats.Timing is
// rolled up from, and a span ring only for a placement that ships its rank's
// timeline back (Trace). No other job reads the ring, and on a small job the
// default 4096 spans are a third of the bytes the job allocates.
func jobTelemetry(pl *Placement) *abft.Telemetry {
	if pl != nil && pl.Trace {
		return abft.NewTelemetry(0)
	}
	return abft.NewTelemetry(-1)
}

// stepAll advances p by req.Iters sweeps, streaming the stats events the
// request asked for.
func stepAll[T abft.Float](p abft.Protector[T], req JobRequest, emit func(WorkerEvent) error) error {
	for i := 1; i <= req.Iters; i++ {
		p.Step()
		if req.StatsEvery > 0 && (i%req.StatsEvery == 0 || i == req.Iters) {
			st := p.Stats()
			if err := emit(WorkerEvent{Event: "stats", Iter: i, Stats: &st}); err != nil {
				return err
			}
		}
	}
	return nil
}

// rawElems encodes a whole domain into one exactly-sized buffer.
func rawElems[T abft.Float](elem string, data []T) []byte {
	return dist.AppendElems(make([]byte, 0, len(data)*elemSize(elem)), data)
}
