package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sync"
	"time"
)

// Worker is the host end of the protocol WorkerMain speaks: Send posts a
// JobRequest, Recv blocks for the next WorkerEvent, Kill tears the worker
// down hard (mid-job if necessary), Close ends its request stream, waits
// for it to exit on its own and reports how it did (nil for an idle worker,
// the exit status of one that died). Implementations: a child process over
// stdin/stdout, or an in-process goroutine over pipes — both embed the one
// stream codec and differ only in how they die.
type Worker interface {
	Send(req JobRequest) error
	Recv() (WorkerEvent, error)
	Kill()
	Close() error
}

// StartWorker launches a fresh worker for a pool slot — called at pool
// construction and again whenever a slot's worker dies and is respawned.
type StartWorker func(slot int) (Worker, error)

var errWorkerKilled = errors.New("serve: worker killed")

// InprocWorkers returns a StartWorker that runs WorkerMain in a goroutine
// connected over pipes — the same protocol as a child process, without the
// fork. Tests and single-binary deployments use it.
func InprocWorkers() StartWorker {
	return func(int) (Worker, error) {
		reqR, reqW := io.Pipe()
		evR, evW := io.Pipe()
		go func() {
			err := WorkerMain(reqR, evW)
			evW.CloseWithError(err)
		}()
		return &pipeWorker{stream: newStream(evR, reqW), reqW: reqW, evR: evR}, nil
	}
}

type pipeWorker struct {
	*stream
	reqW *io.PipeWriter
	evR  *io.PipeReader
}

// Close drains the event pipe, which WorkerMain's return closes with its
// result.
func (w *pipeWorker) Close() error {
	w.reqW.Close()
	_, err := io.Copy(io.Discard, w.evR)
	return err
}

func (w *pipeWorker) Kill() {
	w.reqW.CloseWithError(errWorkerKilled)
	w.evR.CloseWithError(errWorkerKilled)
}

// ProcessWorkers returns a StartWorker that forks bin with args, speaking
// the protocol over the child's stdin/stdout. extraEnv entries are appended
// to the parent environment — how the test binary re-execs itself into
// WorkerMain. The child's stderr passes through for crash diagnostics.
func ProcessWorkers(bin string, extraEnv []string, args ...string) StartWorker {
	return func(int) (Worker, error) {
		cmd := exec.Command(bin, args...)
		if len(extraEnv) > 0 {
			cmd.Env = append(os.Environ(), extraEnv...)
		}
		cmd.Stderr = os.Stderr
		// Wire stdin/stdout through pipes this process owns rather than
		// StdinPipe/StdoutPipe: Kill must call Wait while a concurrent Recv
		// may still be blocked on stdout, and os/exec forbids Wait before
		// reads from an exec-managed pipe complete (Wait closes the pipe
		// under the reader). With our own os.Pipe, Wait touches nothing the
		// reader holds — a blocked Recv simply sees EOF when the child dies.
		inR, inW, err := os.Pipe()
		if err != nil {
			return nil, err
		}
		outR, outW, err := os.Pipe()
		if err != nil {
			inR.Close()
			inW.Close()
			return nil, err
		}
		cmd.Stdin = inR
		cmd.Stdout = outW
		if err := cmd.Start(); err != nil {
			inR.Close()
			inW.Close()
			outR.Close()
			outW.Close()
			return nil, fmt.Errorf("serve: cannot start worker %s: %w", bin, err)
		}
		// The child holds duplicates of its ends; drop the parent's copies
		// so the reader sees EOF as soon as the child exits.
		inR.Close()
		outW.Close()
		return &procWorker{stream: newStream(outR, inW), cmd: cmd, stdin: inW, stdout: outR}, nil
	}
}

type procWorker struct {
	*stream
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	stdout io.ReadCloser
	once   sync.Once
	exit   error
}

// Kill is safe even under a concurrent Recv or Close: the pipes are
// parent-owned, so reaping touches nothing a reader holds — the child's
// death closes its stdout end and the blocked Recv observes EOF.
func (w *procWorker) Kill() {
	w.cmd.Process.Kill() // set: procWorker exists only once Start succeeded
	w.Close()
}

// Close reports how the child exited on every call, a killed child's
// included: a child that had already died keeps its own exit status.
func (w *procWorker) Close() error {
	w.once.Do(func() {
		w.stdin.Close()
		w.exit = w.cmd.Wait()
		w.stdout.Close()
	})
	return w.exit
}

// Slot is one lane of the pool: at most one job runs on it at a time. The
// worker behind it is replaceable — a kill (timeout, crash, shutdown)
// leaves the slot intact and the pool respawns on release.
type Slot struct {
	ID int

	mu    sync.Mutex
	w     Worker
	gen   uint64 // bumped by every arm; identifies the current run
	armed bool   // an armed run has not returned from Run yet
}

// arm binds the slot's next Run to a kill token. killIf with that token
// tears the worker down only while the armed run is still in flight, so a
// watchdog timer or a gang collapse that fires concurrently with job
// completion cannot shoot a respawned worker or a later job that
// re-acquired the slot.
func (s *Slot) arm() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gen++
	s.armed = true
	return s.gen
}

// killIf kills the slot's worker iff the run armed with token is still in
// flight; a stale token (the run returned, or the slot was re-armed for a
// newer job) makes it a no-op.
func (s *Slot) killIf(token uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.armed || s.gen != token {
		return
	}
	s.armed = false
	if s.w != nil {
		s.w.Kill()
		s.w = nil
	}
}

// disarm retires the current kill token; late killIf calls become no-ops.
func (s *Slot) disarm() {
	s.mu.Lock()
	s.armed = false
	s.mu.Unlock()
}

// Run sends req to the slot's worker and pumps the events that answer it
// into onEvent until its terminal event ("done" or "error") has been
// delivered. A non-nil return means the worker itself failed: it refused
// the request, died, or spoke garbage; the gang runner stops it, any other
// caller releases the slot unhealthy.
func (s *Slot) Run(req JobRequest, onEvent func(WorkerEvent)) error {
	defer s.disarm()
	s.mu.Lock()
	w := s.w
	s.mu.Unlock()
	if w == nil {
		return fmt.Errorf("serve: slot %d has no live worker", s.ID)
	}
	if err := w.Send(req); err != nil {
		return fmt.Errorf("serve: slot %d: worker rejected the job: %w", s.ID, err)
	}
	for {
		ev, err := w.Recv()
		if err != nil {
			return fmt.Errorf("serve: slot %d: worker died mid-job: %w", s.ID, err)
		}
		if ev.ID != req.ID {
			continue // stale event from a previously killed job
		}
		onEvent(ev)
		if ev.Event == "done" || ev.Event == "error" {
			return nil
		}
	}
}

// stopGrace bounds how long stop waits for a worker to exit on its own
// before killing it: one that failed its run may still be running.
const stopGrace = time.Second

// stop takes the slot's worker away and ends it, reporting how it exited
// (Worker.Close; nil if there was none). A worker in an armed run is
// killed at once; any other is closed, so it exits on its own and flushes
// what it writes at exit (a -worker's profiles), within stopGrace. The
// slot is left workerless, which the pool respawns on release.
func (s *Slot) stop() error {
	s.mu.Lock()
	w, busy := s.w, s.armed
	s.w = nil
	s.mu.Unlock()
	if w == nil {
		return nil
	}
	if busy {
		w.Kill()
		return nil
	}
	t := time.AfterFunc(stopGrace, w.Kill)
	defer t.Stop()
	return w.Close()
}

// Pool owns a fixed set of worker slots. Acquire hands out exclusive slots,
// Release returns them (respawning dead workers), Close ends everything.
type Pool struct {
	start StartWorker
	free  chan *Slot
	slots []*Slot

	mu     sync.Mutex
	closed bool
}

// NewPool starts n workers (n < 1 is clamped to 1). Failure to start any
// worker tears down the ones already running.
func NewPool(n int, start StartWorker) (*Pool, error) {
	if n < 1 {
		n = 1
	}
	p := &Pool{start: start, free: make(chan *Slot, n)}
	for i := 0; i < n; i++ {
		w, err := start(i)
		if err != nil {
			p.Close()
			return nil, fmt.Errorf("serve: cannot start worker %d: %w", i, err)
		}
		s := &Slot{ID: i, w: w}
		p.slots = append(p.slots, s)
		p.free <- s
	}
	return p, nil
}

// Acquire blocks for a free slot or the context's end.
func (p *Pool) Acquire(ctx context.Context) (*Slot, error) {
	select {
	case s := <-p.free:
		return s, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// acquire blocks until n slots are held, in the order they come free
// (slot order in a fresh pool). The scheduler's dispatcher is its only
// caller in a service, so waiting for a whole gang cannot deadlock
// against another acquirer — running jobs always release.
func (p *Pool) acquire(ctx context.Context, n int) ([]*Slot, error) {
	slots := make([]*Slot, 0, n)
	for len(slots) < n {
		sl, err := p.Acquire(ctx)
		if err != nil {
			for _, held := range slots {
				p.Release(held, true)
			}
			return nil, err
		}
		slots = append(slots, sl)
	}
	return slots, nil
}

// Release returns a slot to the pool. An unhealthy release (the worker
// failed the job at the protocol level) kills and respawns the worker; a
// slot whose worker is gone for any reason is respawned too, so one crash
// never permanently shrinks the pool.
func (p *Pool) Release(s *Slot, healthy bool) {
	s.mu.Lock()
	dead := !healthy || s.w == nil
	s.mu.Unlock()
	if dead && !p.isClosed() {
		// On failure the slot stays workerless; the next Run on it fails
		// fast and the release after that retries the spawn.
		p.respawn(s)
	}
	if p.isClosed() {
		s.stop()
		return
	}
	p.free <- s
}

// respawn ends whatever worker slot s still has and starts a fresh one:
// how a released slot whose worker failed, and a gang rank's claimant,
// get one.
func (p *Pool) respawn(s *Slot) error {
	s.stop()
	w, err := p.start(s.ID)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.w = w
	s.mu.Unlock()
	return nil
}

func (p *Pool) isClosed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.closed
}

// Close ends every worker; idempotent. A worker mid-run is killed, so its
// Run returns an error and the job fails; an idle one has its request
// stream closed and exits on its own.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.mu.Unlock()
	for _, s := range p.slots {
		s.stop()
	}
	// Drain the free list so no released slot lingers in the channel.
	for {
		select {
		case <-p.free:
		default:
			return
		}
	}
}
