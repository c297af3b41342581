package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	abft "stencilabft"
)

// maxUploads bounds the retained grid uploads (FIFO eviction). Uploads are
// content-addressed, so re-uploading after eviction yields the same id.
const maxUploads = 256

// Server is the HTTP front-end: the /v1 job API, grid uploads, SSE event
// streams and the /metrics endpoint, all backed by one Scheduler.
type Server struct {
	cfg   Config
	sched *Scheduler
	met   *Metrics
	mux   *http.ServeMux

	mu          sync.Mutex
	uploads     map[string]*abft.WireGrid
	uploadOrder []string
}

// New builds a Server (starting its worker pool and dispatcher). Close it
// when done.
func New(cfg Config) (*Server, error) {
	met := NewMetrics()
	sched, err := NewScheduler(cfg, met)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg: sched.Config(), sched: sched, met: met,
		mux:     http.NewServeMux(),
		uploads: make(map[string]*abft.WireGrid),
	}
	s.routes()
	return s, nil
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Scheduler exposes the backing scheduler (tests reach through it).
func (s *Server) Scheduler() *Scheduler { return s.sched }

// Close stops the scheduler and its worker pool.
func (s *Server) Close() { s.sched.Close() }

func (s *Server) routes() {
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("POST /v1/grids", s.handleUpload)
	s.mux.HandleFunc("GET /v1/grids/{id}", s.handleGetGrid)
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
}

// errorBody is the uniform error response shape.
type errorBody struct {
	Error string `json:"error"`
	Kind  string `json:"kind"`
}

func kindFor(status int) string {
	switch {
	case status == http.StatusTooManyRequests:
		return "backpressure"
	case status == http.StatusNotFound:
		return "not_found"
	case status == http.StatusConflict:
		return "not_ready"
	case status == http.StatusNotAcceptable:
		return "not_acceptable"
	case status >= 400 && status < 500:
		return "bad_request"
	default:
		return "internal"
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func (s *Server) writeError(w http.ResponseWriter, err error) {
	status := StatusFor(err)
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", strconv.Itoa(int(s.cfg.RetryAfter.Seconds())))
	}
	writeJSON(w, status, errorBody{Error: err.Error(), Kind: kindFor(status)})
}

func (s *Server) writeErrorStatus(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorBody{Error: msg, Kind: kindFor(status)})
}

// tenantOf resolves the caller's tenant from the X-Tenant header.
func tenantOf(r *http.Request) string {
	if t := r.Header.Get("X-Tenant"); t != "" {
		return t
	}
	return "default"
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":      true,
		"workers": len(s.sched.pool.slots),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.met.WritePrometheus(w)
}

// handleUpload stores a grid for later reference from a job spec's
// grid/cfield "upload" field. The body is a WireGrid with inline data; the
// id is the content hash, so identical uploads collapse.
func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes))
	if err != nil {
		s.writeErrorStatus(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("serve: upload exceeds %d bytes", s.cfg.MaxUploadBytes))
		return
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var g abft.WireGrid
	if err := dec.Decode(&g); err != nil {
		s.writeErrorStatus(w, http.StatusBadRequest, fmt.Sprintf("serve: cannot parse grid upload: %v", err))
		return
	}
	if g.Upload != "" || g.Generator != "" {
		s.writeErrorStatus(w, http.StatusBadRequest,
			"serve: an upload must carry inline data (no upload or generator references)")
		return
	}
	nz := g.Nz
	if nz == 0 {
		nz = 1
	}
	if g.Nx < 1 || g.Ny < 1 || len(g.Data) != g.Nx*g.Ny*nz {
		s.writeErrorStatus(w, http.StatusBadRequest,
			fmt.Sprintf("serve: upload shape %dx%dx%d does not match %d data values", g.Nx, g.Ny, g.Nz, len(g.Data)))
		return
	}
	canonical, err := json.Marshal(&g)
	if err != nil {
		s.writeErrorStatus(w, http.StatusInternalServerError, err.Error())
		return
	}
	id := Key(canonical, 0)[:40]
	s.mu.Lock()
	if _, ok := s.uploads[id]; !ok {
		s.uploads[id] = &g
		s.uploadOrder = append(s.uploadOrder, id)
		for len(s.uploadOrder) > maxUploads {
			delete(s.uploads, s.uploadOrder[0])
			s.uploadOrder = s.uploadOrder[1:]
		}
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusCreated, map[string]any{"id": id, "values": len(g.Data)})
}

func (s *Server) handleGetGrid(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	g, ok := s.uploads[r.PathValue("id")]
	s.mu.Unlock()
	if !ok {
		s.writeErrorStatus(w, http.StatusNotFound, "serve: no such upload")
		return
	}
	writeJSON(w, http.StatusOK, g)
}

// resolveUpload splices a stored upload into a grid reference, validating
// any shape the reference itself declares.
func (s *Server) resolveUpload(ref *abft.WireGrid) (*abft.WireGrid, error) {
	if ref == nil || ref.Upload == "" || ref.Generator != "" || ref.Data != nil {
		return ref, nil // nothing to resolve; SpecFromWire validates the rest
	}
	s.mu.Lock()
	g, ok := s.uploads[ref.Upload]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: upload %q not found (uploads are evicted FIFO; re-POST /v1/grids)",
			abft.ErrUnresolvedUpload, ref.Upload)
	}
	if (ref.Nx != 0 && ref.Nx != g.Nx) || (ref.Ny != 0 && ref.Ny != g.Ny) || (ref.Nz != 0 && ref.Nz != g.Nz) {
		return nil, fmt.Errorf("%w: spec declares %dx%dx%d but upload %q is %dx%dx%d",
			abft.ErrUnresolvedUpload, ref.Nx, ref.Ny, ref.Nz, ref.Upload, g.Nx, g.Ny, g.Nz)
	}
	resolved := *g
	return &resolved, nil
}

// submitBody is the POST /v1/jobs request shape.
type submitBody struct {
	Spec  json.RawMessage `json:"spec"`
	Iters int             `json:"iters"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		s.writeErrorStatus(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("serve: request exceeds %d bytes", s.cfg.MaxBodyBytes))
		return
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var req submitBody
	if err := dec.Decode(&req); err != nil {
		s.writeErrorStatus(w, http.StatusBadRequest, fmt.Sprintf("serve: cannot parse request: %v", err))
		return
	}
	if len(req.Spec) == 0 {
		s.writeErrorStatus(w, http.StatusBadRequest, `serve: request needs a "spec" (a WireSpec document)`)
		return
	}
	if req.Iters < 1 || req.Iters > s.cfg.MaxIters {
		s.writeErrorStatus(w, http.StatusBadRequest,
			fmt.Sprintf(`serve: "iters" must be in [1, %d] (got %d)`, s.cfg.MaxIters, req.Iters))
		return
	}
	wire, err := parseWireSpec(req.Spec)
	if err != nil {
		s.writeError(w, err)
		return
	}
	if wire.Grid, err = s.resolveUpload(wire.Grid); err != nil {
		s.writeError(w, err)
		return
	}
	if wire.CField, err = s.resolveUpload(wire.CField); err != nil {
		s.writeError(w, err)
		return
	}
	// The canonical bytes are both the cache key input and exactly what
	// workers execute, so a cache hit and a fresh run see the same
	// document; validation runs here too, so a spec Build would reject
	// never reaches the queue. A generator grid stays its reference: the
	// generators are deterministic, so the worker builds the same bits.
	canonical, err := wire.Canonical()
	if err != nil {
		s.writeError(w, err)
		return
	}
	elem := wire.Elem
	if elem == "" {
		elem = "float32"
	}
	// wire is the only parse of this submission: its layout rides on the
	// job, so the dispatcher never opens the canonical document.
	j, err := s.sched.submit(tenantOf(r), elem, canonical, req.Iters, layoutOf(wire))
	if err != nil {
		s.writeError(w, err)
		return
	}
	// A fresh job may already be done by now — the dispatcher runs it as
	// soon as it is queued — so only a cache hit is answered 200.
	st := j.Status()
	status := http.StatusAccepted
	if st.Cached {
		status = http.StatusOK
	}
	writeJSON(w, status, st)
}

func (s *Server) job(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	j, ok := s.sched.Job(r.PathValue("id"))
	if !ok {
		s.writeErrorStatus(w, http.StatusNotFound, "serve: no such job")
	}
	return j, ok
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.job(w, r); ok {
		writeJSON(w, http.StatusOK, j.Status())
	}
}

func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	switch j.State() {
	case StateDone:
		s.writeResult(w, r, j)
	case StateFailed:
		st := j.Status()
		status := st.Status
		if status == 0 {
			status = http.StatusInternalServerError
		}
		writeJSON(w, status, errorBody{Error: st.Error, Kind: kindFor(status)})
	default:
		s.writeErrorStatus(w, http.StatusConflict,
			fmt.Sprintf("serve: job is %s; poll again or stream /v1/jobs/%s/events", j.State(), j.ID))
	}
}

// handleJobEvents streams the job's event history and live events as SSE:
// each event is `event: <type>` + `data: <json>`. The stream closes after
// the terminal done/error event or when the client goes away. Events are
// flushed to the client a burst at a time: the replay once, a live event
// only when no other is queued behind it, the terminal one by the end of
// the response.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		s.writeErrorStatus(w, http.StatusInternalServerError, "serve: response writer cannot stream")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)

	replay, live, cancel := j.Subscribe()
	defer cancel()
	var buf []byte
	// write sends ev unflushed and reports whether the stream goes on. A
	// terminal event is never flushed here: the handler returns, and the
	// end of the response writes it out with the closing chunk.
	write := func(ev Event) bool {
		buf = append(append(buf[:0], "event: "...), ev.Type...)
		buf = append(ev.AppendJSON(append(buf, "\ndata: "...)), '\n', '\n')
		w.Write(buf)
		return !ev.Terminal()
	}
	for _, ev := range replay {
		if !write(ev) {
			return
		}
	}
	fl.Flush()
	for {
		select {
		case <-r.Context().Done():
			return
		case ev := <-live:
			if !write(ev) {
				return
			}
			if len(live) == 0 {
				fl.Flush()
			}
		case <-j.Done():
			// select picks among ready arms at random, so events published
			// before the terminal one may still be queued: relay them first.
			// (Nothing is published after Done, and only this loop receives.)
			for len(live) > 0 {
				if !write(<-live) {
					return
				}
			}
			// The subscriber channel is lossy; synthesise the terminal
			// event from the job's settled state so the stream always
			// closes correctly.
			st := j.Status()
			if st.State == StateFailed {
				write(Event{Type: "error", State: StateFailed, Error: st.Error, Status: st.Status})
			} else {
				_, stat, _ := j.Result()
				write(Event{Type: "done", State: StateDone, Iter: j.Iters, Stats: &stat, Cached: st.Cached})
			}
			return
		}
	}
}
