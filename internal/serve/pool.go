package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sync"
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
}

// Kill is safe even under a concurrent Recv or Close: the pipes are
// parent-owned, so reaping touches nothing a reader holds — the child's
// death closes its stdout end and the blocked Recv observes EOF.
func (w *procWorker) Kill() {
	w.cmd.Process.Kill() // set: procWorker exists only once Start succeeded
	w.Close()
}

func (w *procWorker) Close() (err error) {
	w.once.Do(func() {
		w.stdin.Close()
		err = w.cmd.Wait()
		w.stdout.Close()
	})
	return err
}

// Slot is one lane of the pool: at most one job runs on it at a time. The
// worker behind it is replaceable — a kill (timeout, crash, shutdown)
// leaves the slot intact and the pool respawns on release.
type Slot struct {
	ID int

	mu    sync.Mutex
	w     Worker
	gen   uint64 // bumped by every Arm; identifies the current run
	armed bool   // an armed run has not returned from Run yet
}

// Arm binds the slot's next Run to a kill token. KillIf with that token
// tears the worker down only while the armed run is still in flight, so a
// watchdog timer that fires concurrently with job completion cannot shoot a
// respawned worker or a later job that re-acquired the slot.
func (s *Slot) Arm() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gen++
	s.armed = true
	return s.gen
}

// KillIf kills the slot's worker iff the run armed with token is still in
// flight; a stale token (the run returned, or the slot was re-armed for a
// newer job) makes it a no-op.
func (s *Slot) KillIf(token uint64) {
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

// disarm retires the current kill token; late KillIf calls become no-ops.
func (s *Slot) disarm() {
	s.mu.Lock()
	s.armed = false
	s.mu.Unlock()
}

// RunJob sends req to w and pumps the events that answer it into onEvent
// until its terminal event ("done" or "error") has been delivered — the one
// loop every host of a worker runs (a pool Slot, the stencilrun -launch
// parent). A non-nil return means the worker itself failed: it refused the
// request, died, or spoke garbage.
func RunJob(w Worker, req JobRequest, onEvent func(WorkerEvent)) error {
	if err := w.Send(req); err != nil {
		return fmt.Errorf("worker rejected the job: %w", err)
	}
	for {
		ev, err := w.Recv()
		if err != nil {
			return fmt.Errorf("worker died mid-job: %w", err)
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

// Run is RunJob on the slot's worker. A non-nil return means the caller
// must release the slot unhealthy so the pool respawns it.
func (s *Slot) Run(req JobRequest, onEvent func(WorkerEvent)) error {
	defer s.disarm()
	s.mu.Lock()
	w := s.w
	s.mu.Unlock()
	if w == nil {
		return fmt.Errorf("serve: slot %d has no live worker", s.ID)
	}
	if err := RunJob(w, req, onEvent); err != nil {
		return fmt.Errorf("serve: slot %d: %w", s.ID, err)
	}
	return nil
}

// KillWorker tears down the slot's current worker immediately — the
// watchdog path for jobs that exceed their deadline. A Run in flight
// returns with an error; Release then respawns.
func (s *Slot) KillWorker() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.w != nil {
		s.w.Kill()
		s.w = nil
	}
}

// Pool owns a fixed set of worker slots. Acquire hands out exclusive slots,
// Release returns them (respawning dead workers), Close kills everything.
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

// Size returns the number of slots.
func (p *Pool) Size() int { return len(p.slots) }

// Acquire blocks for a free slot or the context's end.
func (p *Pool) Acquire(ctx context.Context) (*Slot, error) {
	select {
	case s := <-p.free:
		return s, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Release returns a slot to the pool. An unhealthy release (the worker
// failed the job at the protocol level) kills and respawns the worker; a
// slot whose worker is gone for any reason is respawned too, so one crash
// never permanently shrinks the pool.
func (p *Pool) Release(s *Slot, healthy bool) {
	s.mu.Lock()
	if !healthy && s.w != nil {
		s.w.Kill()
		s.w = nil
	}
	if s.w == nil && !p.isClosed() {
		if w, err := p.start(s.ID); err == nil {
			s.w = w
		}
		// On failure the slot stays workerless; the next Run on it fails
		// fast and the release after that retries the spawn.
	}
	s.mu.Unlock()
	if p.isClosed() {
		s.KillWorker()
		return
	}
	p.free <- s
}

func (p *Pool) isClosed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.closed
}

// Close kills every worker, including ones mid-job: their Runs return
// errors and the jobs fail. Idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.mu.Unlock()
	for _, s := range p.slots {
		s.KillWorker()
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
