// Package fleet fans simulation work out across a set of cos-serve
// backends: a Coordinator owns a task queue and one worker loop per
// backend (the per-host fetcher shape of Sia's renter download pipeline),
// with health-gated dispatch, bounded Retry-After-aware retry, and
// failover — a task whose host dies or keeps refusing admission is
// re-queued to another host.
//
// The determinism guarantee is internal/pool's, lifted over the network:
// every job's result stream is a pure function of its normalized spec, and
// the coordinator assembles bodies in submission-index order, so the
// output is byte-identical regardless of fleet size, host set, which host
// ran which task, or how many times a task was retried. Point-tasks are
// content-addressed (each figure_task spec has its own digest), so the
// PR 7 result cache deduplicates repeated work fleet-wide.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

	"cos/internal/serve"
	"cos/internal/serve/client"
)

// ErrBackendDown: the backend is unreachable or has been killed; the
// coordinator treats it as transient and fails the task over.
var ErrBackendDown = errors.New("fleet: backend down")

// ErrClosed: the coordinator was closed with work still pending.
var ErrClosed = errors.New("fleet: coordinator closed")

// A Backend runs one spec at a time to completion. Implementations wrap a
// cos-serve daemon (Host, over the typed HTTP client) or an in-process
// *serve.Server (Loopback, for tests and benches). Run must return the
// job's complete NDJSON result body — which, by the serve determinism
// contract, depends only on the normalized spec, never on the backend.
type Backend interface {
	// Name identifies the backend in events and errors.
	Name() string
	// Health reports nil while the backend admits jobs; an error marks it
	// down (the worker loop stops dispatching and reprobes until nil).
	Health(ctx context.Context) error
	// Run executes spec to completion and returns its NDJSON result body.
	Run(ctx context.Context, spec serve.Spec) ([]byte, error)
}

// JobError is a permanent, spec-level failure: the job ran and failed, or
// the server rejected the spec as invalid. No amount of retrying or
// failing over will change the outcome, so the coordinator fails the task
// immediately.
type JobError struct {
	// Backend is the backend that reported the failure; Job its job ID
	// ("" when the spec never admitted).
	Backend string
	Job     string
	// Message is the server's failure message.
	Message string
	// Err is the underlying error when one exists (validation errors on
	// the loopback path); nil for remote failures that arrive as text.
	Err error
}

// Error implements error.
func (e *JobError) Error() string {
	if e.Job != "" {
		return fmt.Sprintf("fleet: job %s on backend %s failed: %s", e.Job, e.Backend, e.Message)
	}
	return fmt.Sprintf("fleet: backend %s rejected spec: %s", e.Backend, e.Message)
}

// Unwrap exposes the underlying error for errors.Is/As.
func (e *JobError) Unwrap() error { return e.Err }

// Transient reports whether err is worth retrying — on this backend after
// a backoff, or on another one after failover. Permanent errors (the job
// ran and failed, or the spec itself is invalid) reproduce identically on
// every host, so they fail the task immediately; everything else —
// overload, drain, dead hosts, transport faults, 5xx — is the fleet's job
// to route around.
func Transient(err error) bool {
	var jobErr *JobError
	if errors.As(err, &jobErr) {
		return false
	}
	var apiErr *client.APIError
	if errors.As(err, &apiErr) && apiErr.StatusCode >= 400 && apiErr.StatusCode < 500 && apiErr.StatusCode != 429 {
		// 4xx other than overload: the server understood the request and
		// refused it; another host speaks the same protocol.
		return false
	}
	return true
}

// Host returns a Backend that talks to the cos-serve daemon at baseURL
// over the typed HTTP client.
func Host(baseURL string) Backend {
	return &httpBackend{name: baseURL, c: client.New(baseURL)}
}

type httpBackend struct {
	name string
	c    *client.Client
}

func (b *httpBackend) Name() string { return b.name }

// Health probes GET /healthz; a draining server is down for dispatch.
func (b *httpBackend) Health(ctx context.Context) error {
	h, err := b.c.Health(ctx)
	if err != nil {
		return fmt.Errorf("%w: %s: %v", ErrBackendDown, b.name, err)
	}
	if h.State != "ok" {
		return fmt.Errorf("%w: backend %s", serve.ErrDraining, b.name)
	}
	return nil
}

// Run submits the spec, waits for the job to settle, and streams the
// result body. A cache hit on the server returns immediately.
//
// The server keeps only a window of finished jobs, so the job ID can
// answer job_evicted once the job is terminal. The body is then read by
// spec digest, which is lossless because results are content-addressed;
// the task does not fail over. A digest with no stored result means the
// evicted job did not finish done, and the error is transient, so a retry
// runs the spec again.
func (b *httpBackend) Run(ctx context.Context, spec serve.Spec) ([]byte, error) {
	st, err := b.c.Submit(ctx, spec, client.SubmitOptions{})
	if err != nil {
		var apiErr *client.APIError
		if errors.As(err, &apiErr) && !Transient(err) {
			return nil, &JobError{Backend: b.name, Message: apiErr.Message, Err: err}
		}
		return nil, err
	}
	id, digest := st.ID, st.Digest
	byDigest := func(ctx context.Context) ([]byte, error) {
		body, err := b.c.ResultBytes(ctx, digest)
		if errors.Is(err, serve.ErrUnknownJob) {
			return nil, fmt.Errorf("fleet: job %s on backend %s was evicted without a stored result: %v", id, b.name, err)
		}
		return body, err
	}
	if !st.Terminal {
		if st, err = b.c.Wait(ctx, id); err != nil {
			if errors.Is(err, serve.ErrJobEvicted) {
				return byDigest(ctx)
			}
			return nil, err
		}
	}
	return settle(ctx, b.name, id, st.State, st.Error, func(ctx context.Context) ([]byte, error) {
		body, err := b.c.ResultBytes(ctx, id)
		if errors.Is(err, serve.ErrJobEvicted) {
			return byDigest(ctx)
		}
		return body, err
	})
}

// settle maps a terminal job state onto the Backend.Run contract: done
// streams the body, failed is permanent, cancelled (a drain window closing
// over the job, or an operator) is transient — the task re-runs elsewhere
// and, results being content-addressed, produces the same bytes.
func settle(ctx context.Context, backend, jobID, state, errMsg string, read func(context.Context) ([]byte, error)) ([]byte, error) {
	switch state {
	case serve.StateDone.String():
		return read(ctx)
	case serve.StateFailed.String():
		return nil, &JobError{Backend: backend, Job: jobID, Message: errMsg}
	default:
		return nil, fmt.Errorf("fleet: job %s on backend %s ended %s before completing", jobID, backend, state)
	}
}

// Loopback is an in-process Backend over a *serve.Server: the same
// admission, queueing, caching, and result machinery as a remote daemon,
// minus the socket. Tests and benches build multi-backend fleets from
// these; Kill simulates a host dying mid-run (subsequent — and in-flight —
// Runs report ErrBackendDown).
type Loopback struct {
	name string
	srv  *serve.Server

	mu   sync.Mutex
	down bool
}

// NewLoopback wraps srv as a Backend named name. The caller owns the
// server's lifecycle (Drain).
func NewLoopback(name string, srv *serve.Server) *Loopback {
	return &Loopback{name: name, srv: srv}
}

// Name implements Backend.
func (l *Loopback) Name() string { return l.name }

// Kill marks the backend dead: Health and Run fail with ErrBackendDown,
// including a Run already in flight (its response is "lost" — the job may
// complete server-side, but the coordinator re-queues the task, and
// content-addressed results make the re-run byte-identical).
func (l *Loopback) Kill() {
	l.mu.Lock()
	l.down = true
	l.mu.Unlock()
}

func (l *Loopback) dead() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.down
}

// Health implements Backend.
func (l *Loopback) Health(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if l.dead() {
		return fmt.Errorf("%w: %s", ErrBackendDown, l.name)
	}
	if l.srv.Draining() {
		return fmt.Errorf("%w: backend %s", serve.ErrDraining, l.name)
	}
	return nil
}

// Run implements Backend.
func (l *Loopback) Run(ctx context.Context, spec serve.Spec) ([]byte, error) {
	if l.dead() {
		return nil, fmt.Errorf("%w: %s", ErrBackendDown, l.name)
	}
	job, err := l.srv.Submit(spec)
	if err != nil {
		if Transient(err) {
			return nil, err // overload / drain: the coordinator's problem
		}
		return nil, &JobError{Backend: l.name, Message: err.Error(), Err: err}
	}
	select {
	case <-job.Done():
	case <-ctx.Done():
		_ = l.srv.Cancel(job.ID())
		return nil, ctx.Err()
	}
	if l.dead() {
		return nil, fmt.Errorf("%w: %s", ErrBackendDown, l.name)
	}
	st := job.Status()
	return settle(ctx, l.name, job.ID(), st.State, st.Error, func(context.Context) ([]byte, error) {
		return io.ReadAll(job.Result())
	})
}
