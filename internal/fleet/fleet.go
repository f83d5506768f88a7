package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"cos/internal/experiments"
	"cos/internal/obs/event"
	"cos/internal/pool"
	"cos/internal/serve"
	"cos/internal/serve/client"
)

// Config parameterizes a Coordinator. The zero value plus at least one
// backend is usable.
type Config struct {
	// Backends is the initial host set; AddBackend grows it at runtime.
	Backends []Backend
	// Journal receives fleet_* and backend_* events (nil disables).
	Journal *event.Journal
	// RetryAttempts is how many transient failures a worker absorbs on one
	// backend (sleeping a backoff between them) before failing the task
	// over to the queue. 0 selects 2; negative disables retry (fail over on
	// the first transient error).
	RetryAttempts int
	// MaxHops caps how many backends may give up on a task before the task
	// fails outright — the brake on a spec that every host rejects
	// transiently forever. 0 selects 8.
	MaxHops int
	// Backoff is the retry-delay template. Its Rand is ignored: each worker
	// gets a private copy with a source derived from Seed and the worker
	// index, so delay sequences are reproducible and race-free.
	Backoff client.Backoff
	// Seed feeds the per-worker jitter sources (0 selects 1). It has no
	// effect on results — only on retry timing.
	Seed int64
	// HealthEvery is the reprobe cadence for a backend that failed its
	// post-failover health check (0 selects 100ms).
	HealthEvery time.Duration
}

// task is the internal unit of fleet work: one spec, one slot in the
// submission order.
type task struct {
	spec   serve.Spec
	digest string
	index  int
	ctx    context.Context
	// hops counts backends that exhausted their retries on this task;
	// guarded by the coordinator mutex while queued, owned by one worker
	// while running.
	hops int

	once sync.Once
	done chan struct{}
	body []byte
	err  error
}

func (t *task) finish(body []byte, err error) {
	t.once.Do(func() {
		t.body, t.err = body, err
		close(t.done)
	})
}

// Task is the caller's handle on a submitted spec.
type Task struct{ t *task }

// Wait blocks until the task settles or ctx expires, returning the job's
// NDJSON result body.
func (tk *Task) Wait(ctx context.Context) ([]byte, error) {
	select {
	case <-tk.t.done:
		return tk.t.body, tk.t.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Coordinator fans specs out across backends. One goroutine per backend
// pulls from a shared queue (lowest submission index first, so failover
// re-queues jump ahead of later work instead of starving the assembly),
// runs the spec with bounded retry, and either settles the task or puts it
// back for another backend. Results are handed back strictly by submission
// index, never by completion order.
type Coordinator struct {
	cfg      Config
	journal  *event.Journal
	closedCh chan struct{}

	mu        sync.Mutex
	cond      *sync.Cond
	queue     []*task
	closed    bool
	nextIndex int
	nworkers  int
	wg        sync.WaitGroup
}

// New starts a Coordinator over cfg.Backends. Callers must Close it.
func New(cfg Config) *Coordinator {
	if cfg.RetryAttempts == 0 {
		cfg.RetryAttempts = 2
	}
	if cfg.RetryAttempts < 0 {
		cfg.RetryAttempts = 0
	}
	if cfg.MaxHops <= 0 {
		cfg.MaxHops = 8
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.HealthEvery <= 0 {
		cfg.HealthEvery = 100 * time.Millisecond
	}
	c := &Coordinator{cfg: cfg, journal: cfg.Journal, closedCh: make(chan struct{})}
	c.cond = sync.NewCond(&c.mu)
	for _, b := range cfg.Backends {
		c.AddBackend(b)
	}
	return c
}

func (c *Coordinator) emit(typ string, payload any) {
	if c.journal != nil {
		c.journal.Append(typ, "", payload)
	}
}

// AddBackend brings a backend into dispatch rotation mid-run. Safe to call
// concurrently with Submit/Run; a no-op after Close.
func (c *Coordinator) AddBackend(b Backend) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	seq := c.nworkers
	c.nworkers++
	c.wg.Add(1)
	c.mu.Unlock()
	c.emit(EventBackendUp, BackendEvent{Backend: b.Name()})
	go c.loop(b, seq)
}

// Submit validates spec locally, queues it, and returns its handle.
// Tasks settle in any order but Run assembles strictly by index.
func (c *Coordinator) Submit(ctx context.Context, spec serve.Spec) (*Task, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	t := &task{spec: spec, digest: spec.Digest(), ctx: ctx, done: make(chan struct{})}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	t.index = c.nextIndex
	c.nextIndex++
	c.queue = append(c.queue, t)
	c.mu.Unlock()
	c.cond.Signal()
	return &Task{t: t}, nil
}

// Run submits every spec and assembles the bodies in spec order: bodies[i]
// is exactly what a single serve instance would stream for specs[i], no
// matter which backend ran it. On failure it reports the lowest-index
// task's error (the pool rule) and cancels the rest.
func (c *Coordinator) Run(ctx context.Context, specs []serve.Spec) ([][]byte, error) {
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	tasks := make([]*Task, len(specs))
	for i, sp := range specs {
		t, err := c.Submit(runCtx, sp)
		if err != nil {
			return nil, fmt.Errorf("fleet: task %d: %w", i, err)
		}
		tasks[i] = t
	}
	bodies := make([][]byte, len(specs))
	var firstErr error
	for i, t := range tasks {
		body, err := t.Wait(runCtx)
		if err != nil && firstErr == nil {
			// Waiting in index order means the first error seen is the
			// lowest-index failure; cancel the stragglers.
			firstErr = fmt.Errorf("fleet: task %d: %w", i, err)
			cancel()
		}
		bodies[i] = body
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return bodies, nil
}

// Close stops the workers. Queued tasks fail with ErrClosed; tasks already
// dispatched run to completion first.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	pending := c.queue
	c.queue = nil
	c.mu.Unlock()
	close(c.closedCh)
	c.cond.Broadcast()
	for _, t := range pending {
		t.finish(nil, ErrClosed)
	}
	c.wg.Wait()
}

// pop blocks for the lowest-index queued task; nil means the coordinator
// closed.
func (c *Coordinator) pop() *task {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.queue) == 0 && !c.closed {
		c.cond.Wait()
	}
	if len(c.queue) == 0 {
		return nil
	}
	best := 0
	for i, t := range c.queue {
		if t.index < c.queue[best].index {
			best = i
		}
	}
	t := c.queue[best]
	c.queue = append(c.queue[:best], c.queue[best+1:]...)
	return t
}

// requeue puts a failed-over task back for another worker.
func (c *Coordinator) requeue(t *task) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		t.finish(nil, ErrClosed)
		return
	}
	c.queue = append(c.queue, t)
	c.mu.Unlock()
	c.cond.Signal()
}

// sleep waits d, cut short by the task context or coordinator close.
func (c *Coordinator) sleep(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return true
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-ctx.Done():
		return false
	case <-c.closedCh:
		return false
	}
}

// loop is one backend's worker: pull, run with retry, settle or fail over.
func (c *Coordinator) loop(b Backend, seq int) {
	defer c.wg.Done()
	bo := c.cfg.Backoff
	bo.Rand = rand.New(rand.NewSource(pool.TaskSeed(c.cfg.Seed, seq)))
	for {
		t := c.pop()
		if t == nil {
			return
		}
		c.runTask(b, &bo, t)
	}
}

// runTask drives one task on one backend through the retry budget. On a
// transient failure past the budget the task is re-queued (failover) and
// the backend is health-checked: while unhealthy the worker stands down,
// reprobing instead of pulling work — health-gated dispatch.
func (c *Coordinator) runTask(b Backend, bo *client.Backoff, t *task) {
	name := b.Name()
	for attempt := 0; ; attempt++ {
		if err := t.ctx.Err(); err != nil {
			t.finish(nil, err)
			return
		}
		c.emit(EventFleetDispatch, DispatchEvent{Backend: name, Task: t.index, Digest: t.digest, Attempt: attempt})
		body, err := b.Run(t.ctx, t.spec)
		if err == nil {
			t.finish(body, nil)
			return
		}
		if ctxErr := t.ctx.Err(); ctxErr != nil {
			t.finish(nil, ctxErr)
			return
		}
		if !Transient(err) {
			t.finish(nil, err)
			return
		}
		if attempt < c.cfg.RetryAttempts {
			d := bo.Delay(attempt+1, client.RetryAfterHint(err))
			c.emit(EventFleetRetry, RetryEvent{
				Backend: name, Task: t.index, Digest: t.digest,
				Attempt: attempt + 1, DelayMS: float64(d) / float64(time.Millisecond),
				Error: err.Error(),
			})
			if !c.sleep(t.ctx, d) {
				if ctxErr := t.ctx.Err(); ctxErr != nil {
					t.finish(nil, ctxErr)
				} else {
					t.finish(nil, ErrClosed)
				}
				return
			}
			continue
		}
		t.hops++
		if t.hops >= c.cfg.MaxHops {
			t.finish(nil, fmt.Errorf("fleet: task %d gave up after %d backends, last from %s: %w", t.index, t.hops, name, err))
			return
		}
		c.emit(EventFleetFailover, FailoverEvent{Backend: name, Task: t.index, Digest: t.digest, Hops: t.hops, Error: err.Error()})
		c.requeue(t)
		c.standDown(b, name)
		return
	}
}

// standDown probes the backend after a failover. Healthy (it was merely
// overloaded): return at once and keep pulling work. Unhealthy: announce
// backend_down, reprobe every HealthEvery, and announce backend_up on
// recovery. While standing down the worker pulls no tasks, so a dead host
// never strands queued work.
func (c *Coordinator) standDown(b Backend, name string) {
	probe := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		return b.Health(ctx)
	}
	err := probe()
	if err == nil {
		return
	}
	c.emit(EventBackendDown, BackendEvent{Backend: name, Error: err.Error()})
	for {
		select {
		case <-c.closedCh:
			return
		case <-time.After(c.cfg.HealthEvery):
		}
		if probe() == nil {
			c.emit(EventBackendUp, BackendEvent{Backend: name})
			return
		}
	}
}

// fleetExecutor plugs the coordinator into experiments.RunOptions.Exec:
// every point-task becomes one figure_task spec, content-addressed by its
// digest, and the records come back in task order.
type fleetExecutor struct{ c *Coordinator }

// ExecTasks implements experiments.Executor.
func (e *fleetExecutor) ExecTasks(ctx context.Context, id string, opts experiments.RunOptions, n int) ([]json.RawMessage, error) {
	specs := make([]serve.Spec, n)
	for i := range specs {
		specs[i] = serve.Spec{
			Kind:     serve.KindFigureTask,
			Figure:   id,
			Scale:    opts.Scale,
			Seed:     opts.Seed,
			Scenario: opts.Scenario,
			Task:     i,
		}
	}
	bodies, err := e.c.Run(ctx, specs)
	if err != nil {
		return nil, err
	}
	return decodeTaskRecords(id, bodies)
}

// decodeTaskRecords unwraps the figure_task result bodies of figure id,
// indexed by task, into the per-task records Assemble takes. Each body
// must hold one TaskRecord naming that figure and its own index.
func decodeTaskRecords(id string, bodies [][]byte) ([]json.RawMessage, error) {
	recs := make([]json.RawMessage, len(bodies))
	for i, body := range bodies {
		var tr serve.TaskRecord
		if err := json.Unmarshal(bytes.TrimSpace(body), &tr); err != nil {
			return nil, fmt.Errorf("fleet: decoding task %d record: %w", i, err)
		}
		if tr.Figure != id || tr.Task != i {
			return nil, fmt.Errorf("fleet: task record mismatch at index %d: got figure %q task %d", i, tr.Figure, tr.Task)
		}
		recs[i] = tr.Record
	}
	return recs, nil
}

// RunFigure computes figure id across the fleet and returns a Result
// byte-identical (CSV, plot, notes) to a local experiments.Run: every
// figure fans out point-by-point, one figure_task job per task, through
// the executor seam.
func (c *Coordinator) RunFigure(ctx context.Context, id string, opts experiments.RunOptions) (*experiments.Result, error) {
	// Pin the wire defaults locally before decomposing: the spec cannot
	// carry "unset", and both sides must agree on scale and seed for the
	// task split (and digests) to line up.
	if opts.Scale <= 0 {
		opts.Scale = 1
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	opts.Exec = &fleetExecutor{c: c}
	return experiments.Run(ctx, id, opts)
}
