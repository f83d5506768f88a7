// Package serve is the transport-free core of the cos-serve daemon: a
// long-lived job-queue service that runs simulation workloads — link
// exchanges, control streams, WLAN coordination rounds, and experiment
// figure point-tasks — on a sharded worker pool and streams each job's
// results as NDJSON.
//
// Three properties define the subsystem:
//
//   - Bounded admission. Every shard owns a bounded queue; when a job's
//     shard is full, Submit fails with ErrOverloaded immediately instead
//     of queueing unboundedly (the HTTP layer maps this to 429 with a
//     Retry-After hint). Queue depth and jobs in flight are exported as
//     gauges through internal/obs.
//
//   - Determinism. A job's result stream is a pure function of its
//     normalized Spec: all randomness derives from Spec.Seed, and records
//     are produced in simulation order, never completion order. Two
//     submissions of the same spec return byte-identical NDJSON bodies
//     regardless of shard count or concurrent load.
//
//   - Graceful drain. Drain stops admission (Submit fails with
//     ErrDraining, mapped to 503), lets queued and running jobs finish
//     inside the drain window, then cancels whatever remains via context.
//
// The package deliberately imports no transport: internal/serve/http owns
// the HTTP/JSON surface, and the PR-1 layering rule (net/http stays out of
// library packages) is frozen by the repository's import-hygiene test.
package serve

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"cos"
	"cos/internal/obs"
	"cos/internal/obs/event"
	"cos/internal/serve/cache"
	"cos/internal/serve/store"
)

// Typed admission errors; the HTTP layer maps these to status codes.
var (
	// ErrOverloaded: the job's shard queue is full (HTTP 429).
	ErrOverloaded = errors.New("serve: admission queue full")
	// ErrDraining: the server no longer admits jobs (HTTP 503).
	ErrDraining = errors.New("serve: server is draining")
	// ErrUnknownJob: no job with the requested ID (HTTP 404).
	ErrUnknownJob = errors.New("serve: unknown job")
	// ErrJobEvicted: the ID names a job this server admitted, but the job
	// has left the retained-job window (HTTP 404, code job_evicted). It
	// wraps ErrUnknownJob. The job's result, if it finished done, stays
	// reachable by its spec digest only when the server has a Cache or a
	// Store that still holds it.
	ErrJobEvicted = fmt.Errorf("%w: evicted from the retained-job window", ErrUnknownJob)
	// ErrTraceUnavailable: the job has no retrievable flight-recorder trace
	// — it was submitted untraced, did not finish done, or its persisted
	// trace body is gone (HTTP 404).
	ErrTraceUnavailable = errors.New("serve: trace unavailable")
	// ErrInvalidTraceOptions: the submission's trace options are
	// inconsistent — ProbeEvery < 0, or ProbeEvery > 0 without Trace or on
	// a kind whose trace carries no probes (wlan, figure_task) (HTTP 400).
	ErrInvalidTraceOptions = errors.New("serve: probe cadence requires tracing of a link or stream job and must be >= 0")
)

// Config parameterizes a Server. The zero value selects sane defaults.
type Config struct {
	// Shards is the worker-shard count; each shard runs jobs serially off
	// its own bounded queue, so Shards is also the maximum number of jobs
	// in flight. Zero selects 2.
	Shards int
	// QueueDepth bounds each shard's queue (jobs admitted but not yet
	// running). Zero selects 16.
	QueueDepth int
	// DefaultTimeout is the per-job deadline applied when a spec carries
	// no timeout_ms. Zero selects 60s.
	DefaultTimeout time.Duration
	// Metrics receives the server's gauges and counters (default:
	// obs.Default()).
	Metrics *obs.Registry
	// Journal receives the server's structured lifecycle events (see
	// events.go for the vocabulary). Nil makes the server create and own
	// its own journal of JournalCapacity entries; pass one to share it
	// with other producers (the daemon adds its process-level events and
	// the stderr mirror on the same journal).
	Journal *event.Journal
	// JournalCapacity sizes the ring when the server creates its own
	// journal (0 selects event.DefaultCapacity; negative disables the
	// journal entirely — no events are recorded and GET /events is
	// unavailable).
	JournalCapacity int
	// SummaryEvery is the period between rolling-window summary frames on
	// the journal (0 disables; the daemon defaults to 1s).
	SummaryEvery time.Duration
	// Cache is the content-addressed result cache consulted at admission:
	// a submission whose spec digest is cached returns a job born terminal
	// with the stored byte stream, without touching a shard. Nil disables
	// caching — every submission runs. (The core keeps this opt-in so
	// determinism tests exercise real recomputation; the daemon enables it
	// by default.)
	Cache *cache.Cache
	// Store is the durable job store. When set, every admission appends a
	// WAL record, terminal results are persisted (done results with their
	// NDJSON bodies, failures as settled markers), and New replays the
	// store's recovery state: completed digests are loaded into the cache
	// and submissions that never reached a terminal record are re-admitted.
	// Nil disables persistence. The Server does not close the store; the
	// owner does, after Drain.
	Store *store.Store
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 60 * time.Second
	}
	if c.Metrics == nil {
		c.Metrics = obs.Default()
	}
	return c
}

// retainedJobs is how many terminal jobs the server keeps addressable by
// ID. Queued and running jobs are always kept; once a job turns terminal
// (a cache hit is born terminal) it joins a FIFO window, and the oldest
// terminal job beyond retainedJobs is evicted: its ID answers
// ErrJobEvicted and its idempotency key is forgotten. Nothing is lost
// that matters, because a finished result is content-addressed and
// resolves by spec digest (ResultByDigest). The bound is a constant: it
// caps the job table's memory, and no caller needs another value.
const retainedJobs = 4096

// Server is a running job service. Create one with New, submit jobs with
// Submit, and shut it down with Drain. All methods are safe for
// concurrent use.
type Server struct {
	cfg Config

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu       sync.Mutex
	jobs     map[string]*Job // every queued and running job, plus the window
	byDigest map[string]*Job // newest retained job per spec digest
	byKey    map[string]*Job // retained jobs by idempotency key
	// window holds the retained terminal jobs as a ring in the order they
	// turned terminal; once it is full, windowNext indexes the oldest.
	window     []*Job
	windowNext int
	// traces maps a spec digest to its finished trace artifact, without
	// its body (the durable store holds that). Populated when a traced job
	// finishes done and from store recovery; consulted so a cache-hit
	// submission asking for the same cadence can reuse the persisted trace
	// instead of re-running.
	traces   map[string]*store.TraceArtifact
	nextID   uint64
	nextSh   uint64 // round-robin shard cursor
	draining bool
	shards   []chan *Job

	wg        sync.WaitGroup
	drainOnce sync.Once

	journal    *event.Journal
	ownJournal bool      // Drain closes the journal only if New created it
	ops        *opsState // rolling windows behind summary frames

	queueDepth   *obs.Gauge
	inflight     *obs.Gauge
	submitted    *obs.Counter
	rejected     *obs.CounterFamily
	finished     *obs.CounterFamily
	cacheHits    *obs.Counter
	cacheMisses  *obs.Counter
	jobSeconds   *obs.Histogram
	queueSeconds *obs.Histogram
}

// New starts a server: Shards worker goroutines, each draining its own
// bounded queue.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       map[string]*Job{},
		byDigest:   map[string]*Job{},
		byKey:      map[string]*Job{},
		traces:     map[string]*store.TraceArtifact{},
		shards:     make([]chan *Job, cfg.Shards),

		queueDepth: cfg.Metrics.Gauge("serve_queue_depth",
			"Jobs admitted but not yet running, across all shards."),
		inflight: cfg.Metrics.Gauge("serve_jobs_inflight",
			"Jobs currently executing on shard workers."),
		submitted: cfg.Metrics.Counter("serve_jobs_submitted_total",
			"Jobs admitted to the queue."),
		rejected: cfg.Metrics.CounterFamily("serve_jobs_rejected_total",
			"Jobs rejected at admission, by reason (overload, draining, invalid).", "reason"),
		finished: cfg.Metrics.CounterFamily("serve_jobs_finished_total",
			"Jobs reaching a terminal state, by state (done, failed, cancelled).", "state"),
		cacheHits: cfg.Metrics.Counter("serve_cache_hits_total",
			"Submissions served from the content-addressed result cache."),
		cacheMisses: cfg.Metrics.Counter("serve_cache_misses_total",
			"Submissions that missed the result cache and ran (0 when caching is disabled)."),
		jobSeconds: cfg.Metrics.Histogram("serve_job_seconds",
			"Job execution latency (running -> terminal).", nil),
		queueSeconds: cfg.Metrics.Histogram("serve_job_queue_seconds",
			"Job queue wait (submitted -> running).", nil),
	}
	switch {
	case cfg.Journal != nil:
		s.journal = cfg.Journal
	case cfg.JournalCapacity >= 0:
		s.journal = event.New(cfg.JournalCapacity)
		s.ownJournal = true
	}
	if s.journal != nil {
		s.ops = newOpsState()
	}
	for i := range s.shards {
		s.shards[i] = make(chan *Job, cfg.QueueDepth)
		s.wg.Add(1)
		go s.worker(i)
	}
	// Last: the summary goroutine reads server state, so every field must
	// be initialized before it starts.
	if s.ops != nil && cfg.SummaryEvery > 0 {
		s.startSummaryLoop(cfg.SummaryEvery)
	}
	s.recover()
	return s
}

// recover replays the durable store's recovery state: completed result
// bodies are loaded into the cache (so repeat submissions hit without
// touching disk), and submissions that never reached a terminal record —
// a crash, or a drain window that cancelled them — are re-admitted through
// the normal Submit path and re-run.
func (s *Server) recover() {
	if s.cfg.Store == nil {
		return
	}
	rec := s.cfg.Store.Recovery()
	if rec.Records == 0 {
		return
	}
	warmed := 0
	for _, c := range rec.Completed {
		if c.Trace != nil {
			// Replayed trace artifacts become reusable: a cache-hit
			// submission asking for the same cadence gets the stored trace,
			// and TraceByDigest serves it without a job.
			s.mu.Lock()
			s.traces[c.Digest] = c.Trace
			s.mu.Unlock()
		}
		if s.cfg.Cache == nil {
			continue // ResultByDigest still serves these straight from disk
		}
		if body, err := s.cfg.Store.ReadResult(c.Digest); err == nil {
			s.cfg.Cache.Put(c.Digest, body)
			warmed++
		}
	}
	requeued, dropped := 0, 0
	for _, p := range rec.Pending {
		spec, err := DecodeCanonical(p.Spec)
		if err != nil {
			dropped++ // foreign schema version or corrupt spec: unrunnable
			continue
		}
		job, err := s.SubmitWith(spec, SubmitOptions{})
		if err != nil {
			dropped++ // queue full mid-recovery; the WAL still holds it
			continue
		}
		requeued++
		s.emit(EventJobRecovered, job.ID(), RecoveredEvent{
			Kind: spec.normalized().Kind, Digest: p.Digest, PriorJob: p.Job,
		})
	}
	s.emit(EventStoreRecovered, "", StoreRecoveredEvent{
		Records:        rec.Records,
		Completed:      len(rec.Completed),
		CacheWarmed:    warmed,
		Requeued:       requeued,
		Dropped:        dropped,
		Failed:         len(rec.Failed),
		TruncatedBytes: rec.TruncatedBytes,
	})
}

// SubmitOptions refines SubmitWith admission.
type SubmitOptions struct {
	// IdempotencyKey deduplicates retries: a second submission carrying the
	// same key returns the job the first one admitted instead of admitting
	// another. A key lives as long as its job is retained (see
	// retainedJobs); a retry after eviction admits afresh. Empty disables
	// deduplication. Orthogonal to content addressing: two different keys
	// with the same spec are two submissions (the second may hit the cache).
	IdempotencyKey string
	// Trace makes the shard capture a schema-v2 flight-recorder trace for
	// the job, retrievable via Server.JobTrace once the job finishes done.
	// Trace options are not part of the spec digest: the result stream is
	// identical either way, and the trace body itself is deterministic (its
	// one wall-clock field is stripped), so a traced and an untraced run of
	// the same spec share a digest and a cache entry.
	Trace bool
	// ProbeEvery samples a deep PHY introspection probe on every Nth
	// exchange of a traced link or stream job (cos.WithProbe); 0 captures
	// events only. Setting it without Trace, on a wlan or figure_task job
	// (neither has probe plumbing), or negative, fails admission with
	// ErrInvalidTraceOptions.
	ProbeEvery int
}

// Submit validates spec, admits a job, and returns it. It fails fast with
// ErrDraining once Drain has begun and ErrOverloaded when the target
// shard's queue is full. Equivalent to SubmitWith(spec, SubmitOptions{}).
func (s *Server) Submit(spec Spec) (*Job, error) {
	return s.SubmitWith(spec, SubmitOptions{})
}

// SubmitWith is Submit with options. When a result cache is configured and
// the spec's digest is cached, the returned job is born terminal
// (StateDone, Cached() true) with the stored byte stream — no shard work,
// no queue slot. Admission control still applies: a draining server
// refuses cache hits too.
func (s *Server) SubmitWith(spec Spec, opts SubmitOptions) (*Job, error) {
	norm := spec.normalized()
	if err := spec.Validate(); err != nil {
		s.rejected.With("invalid").Inc()
		s.noteSubmit(true)
		s.emit(EventJobRejected, "", RejectedEvent{
			Reason: "invalid", Kind: norm.Kind, Error: err.Error(), Shard: -1,
		})
		return nil, err
	}
	digest := norm.Digest()
	// Only link and stream jobs hand their links a probe cadence; on wlan
	// and figure_task jobs it would be dropped without a word.
	probed := norm.Kind == KindLink || norm.Kind == KindStream
	if opts.ProbeEvery < 0 || (opts.ProbeEvery > 0 && (!opts.Trace || !probed)) {
		s.rejected.With("invalid").Inc()
		s.noteSubmit(true)
		s.emit(EventJobRejected, "", RejectedEvent{
			Reason: "invalid", Kind: norm.Kind, Error: ErrInvalidTraceOptions.Error(), Shard: -1,
		})
		return nil, ErrInvalidTraceOptions
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.rejected.With("draining").Inc()
		s.noteSubmit(true)
		s.emit(EventJobRejected, "", RejectedEvent{
			Reason: "draining", Kind: norm.Kind, Shard: -1,
		})
		return nil, ErrDraining
	}
	if opts.IdempotencyKey != "" {
		if prior, ok := s.byKey[opts.IdempotencyKey]; ok {
			s.mu.Unlock()
			return prior, nil // a retry of an admission that already happened
		}
	}
	// A traced submission can only be served from the cache when the
	// digest's persisted trace was captured at the same probe cadence and
	// the durable store can re-serve its body; otherwise it falls through
	// to a real run (the result bytes are content-addressed, so re-running
	// cannot change them — the run exists to produce the trace). Without a
	// cache every submission runs.
	cacheable := s.cfg.Cache != nil
	var stored *store.TraceArtifact
	if opts.Trace {
		stored = s.traces[digest]
		cacheable = cacheable && stored != nil && stored.ProbeEvery == opts.ProbeEvery && s.cfg.Store != nil
	}
	var body []byte
	hit := false
	if cacheable {
		body, hit = s.lookupResultLocked(digest)
	}
	if hit {
		s.nextID++
		job := newCachedJob(s.nextID, norm, digest, body)
		job.key = opts.IdempotencyKey
		job.trace = stored
		s.addLocked(job)
		s.retireLocked(job)
		s.mu.Unlock()
		s.submitted.Inc()
		s.cacheHits.Inc()
		s.noteSubmit(false)
		s.emit(EventJobCached, job.id, CachedEvent{
			Kind: norm.Kind, Seed: norm.Seed, Digest: digest, ResultBytes: len(body),
		})
		return job, nil
	}
	s.nextID++
	job := &Job{
		id:        jobID(s.nextID),
		seq:       s.nextID,
		key:       opts.IdempotencyKey,
		spec:      norm,
		digest:    digest,
		buf:       newBuffer(),
		state:     StateQueued,
		submitted: time.Now(),
		done:      make(chan struct{}),
	}
	if opts.Trace {
		// Only the request until the run finishes: no digest to show yet.
		job.trace = &store.TraceArtifact{ProbeEvery: opts.ProbeEvery}
	}
	shardIdx := int(s.nextSh % uint64(len(s.shards)))
	shard := s.shards[shardIdx]
	depthBefore := len(shard)
	if depthBefore == cap(shard) {
		s.nextID-- // job was never admitted; reuse the ID
		s.mu.Unlock()
		s.rejected.With("overload").Inc()
		s.noteSubmit(true)
		s.emit(EventJobRejected, "", RejectedEvent{
			Reason: "overload", Kind: norm.Kind, Shard: shardIdx, QueueDepth: depthBefore,
		})
		return nil, ErrOverloaded
	}
	s.nextSh++
	s.addLocked(job)
	// The admitted event and the depth gauge precede the send: once the job
	// is in the queue a worker may journal job_started and decrement the
	// gauge at any moment.
	s.queueDepth.Add(1)
	s.emit(EventJobAdmitted, job.id, AdmittedEvent{
		Kind: norm.Kind, Seed: norm.Seed, Shard: shardIdx, QueueDepth: depthBefore + 1,
	})
	shard <- job // never blocks: every send happens under s.mu and the queue has room
	s.mu.Unlock()
	s.logSubmit(job)
	s.submitted.Inc()
	if s.cfg.Cache != nil {
		s.cacheMisses.Inc()
	}
	s.noteSubmit(false)
	return job, nil
}

// jobID formats the ID of the n-th admitted job.
func jobID(n uint64) string { return fmt.Sprintf("job-%06d", n) }

// assignedLocked reports whether id is the ID of a job this server has
// admitted, retained or not. IDs are dense: job-1 … job-nextID were all
// assigned (a rejected admission hands its number to the next job).
func (s *Server) assignedLocked(id string) bool {
	rest, ok := strings.CutPrefix(id, "job-")
	if !ok {
		return false
	}
	n, err := strconv.ParseUint(rest, 10, 64)
	return err == nil && n >= 1 && n <= s.nextID && jobID(n) == id
}

// addLocked enters an admitted job in the table and its indexes.
func (s *Server) addLocked(j *Job) {
	s.jobs[j.id] = j
	s.byDigest[j.digest] = j
	if j.key != "" {
		s.byKey[j.key] = j
	}
}

// retire enters a job that has just turned terminal in the retained
// window. Runs as a finish hook.
func (s *Server) retire(j *Job) {
	s.mu.Lock()
	s.retireLocked(j)
	s.mu.Unlock()
}

// retireLocked appends j to the window, evicting the oldest terminal job
// once the window holds retainedJobs: the evicted job leaves the table,
// its idempotency key, and the digest index if that still names it.
func (s *Server) retireLocked(j *Job) {
	if len(s.window) < retainedJobs {
		s.window = append(s.window, j)
		return
	}
	old := s.window[s.windowNext]
	delete(s.jobs, old.id)
	if old.key != "" && s.byKey[old.key] == old {
		delete(s.byKey, old.key)
	}
	if s.byDigest[old.digest] == old {
		delete(s.byDigest, old.digest)
	}
	s.window[s.windowNext] = j
	s.windowNext = (s.windowNext + 1) % retainedJobs
}

// lookupResultLocked resolves digest to a finished result body: the cache
// first, then the durable store (re-warming the cache on a disk hit, so
// eviction costs one read, not permanence). It answers false when no cache
// is configured; ResultByDigest reads the store itself in that case.
// Callers hold s.mu; the nested cache lock is fine (nothing locks them in
// the other order) and the disk fallback runs once per evicted digest.
func (s *Server) lookupResultLocked(digest string) ([]byte, bool) {
	if s.cfg.Cache == nil {
		return nil, false
	}
	if body, ok := s.cfg.Cache.Get(digest); ok {
		return body, true
	}
	if s.cfg.Store != nil {
		if body, err := s.cfg.Store.ReadResult(digest); err == nil {
			s.cfg.Cache.Put(digest, body)
			return body, true
		}
	}
	return nil, false
}

// logSubmit appends the admission WAL record. Called off s.mu: the WAL
// fsyncs, and replay tolerates the resulting append races (see the store
// package's digest folding rules).
func (s *Server) logSubmit(j *Job) {
	if s.cfg.Store == nil {
		return
	}
	canonical, err := j.spec.Canonical()
	if err != nil {
		return // impossible for a validated spec; nothing durable to write
	}
	_ = s.cfg.Store.LogSubmit(j.id, j.digest, canonical)
}

// persistTerminal makes a terminal state durable and cacheable: done
// results enter the cache and the store (body first, then the WAL record),
// the cache keeping the job's own closed result bytes, not a copy;
// failures append a settled marker so restarts do not retry them;
// cancellations write nothing — absence is what makes them re-run after a
// restart. Runs as a finish hook, before Done() observers wake.
func (s *Server) persistTerminal(j *Job, st State) {
	switch st {
	case StateDone:
		body := j.buf.Bytes()
		if s.cfg.Cache != nil {
			s.cfg.Cache.Put(j.digest, body)
		}
		// A traced job that ran to done holds its captured artifact, body
		// included; the index keeps a copy without the body, so it pins no
		// trace in memory.
		tr := j.traceArtifact()
		if tr != nil {
			meta := *tr
			meta.Body = nil
			s.mu.Lock()
			s.traces[j.digest] = &meta
			s.mu.Unlock()
		}
		if s.cfg.Store != nil {
			_ = s.cfg.Store.LogResult(j.id, j.digest, "done", "", body, tr)
		}
	case StateFailed:
		if s.cfg.Store != nil {
			_ = s.cfg.Store.LogResult(j.id, j.digest, "failed", j.Err(), nil, nil)
		}
	}
}

// noteSubmit feeds the rolling admission windows behind summary frames.
func (s *Server) noteSubmit(rejected bool) {
	if s.ops == nil {
		return
	}
	s.ops.submits.Add(1)
	if rejected {
		s.ops.rejects.Add(1)
	}
}

// Job returns the job with the given ID. An ID this server assigned whose
// job has left the retained window fails with ErrJobEvicted; any other
// unknown ID with ErrUnknownJob.
func (s *Server) Job(id string) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		if s.assignedLocked(id) {
			return nil, fmt.Errorf("%w: %q", ErrJobEvicted, id)
		}
		return nil, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	return j, nil
}

// JobByDigest returns the most recently admitted retained job for a spec
// digest.
func (s *Server) JobByDigest(digest string) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.byDigest[digest]
	if !ok {
		return nil, fmt.Errorf("%w: digest %q", ErrUnknownJob, digest)
	}
	return j, nil
}

// ResultByDigest returns the finished result body for a spec digest from
// the cache or the durable store, without admitting a job. The returned
// slice is read-only. It reports false when the digest has no completed
// result (never ran, still running, failed, or neither a cache nor a
// store is configured).
func (s *Server) ResultByDigest(digest string) ([]byte, bool) {
	if s.cfg.Cache == nil {
		// Every call reads the disk here, so it runs off s.mu: result
		// files are content-addressed and written by rename, never
		// changed in place.
		if s.cfg.Store == nil {
			return nil, false
		}
		body, err := s.cfg.Store.ReadResult(digest)
		return body, err == nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lookupResultLocked(digest)
}

// JobTrace returns the finished flight-recorder trace body for a job,
// along with the trace's own content address. It fails with
// ErrTraceUnavailable when the job was submitted untraced, did not finish
// done, or its trace body was persisted but is no longer readable.
// Callers wanting the trace of a still-running job wait on Done() first.
func (s *Server) JobTrace(j *Job) (body []byte, digest string, err error) {
	if j.State() != StateDone {
		return nil, "", ErrTraceUnavailable
	}
	return s.readTrace(j.traceArtifact())
}

// TraceByDigest returns the finished trace body for a spec digest without
// resolving a job: the newest job for the digest when it holds the trace
// in memory, the durable store otherwise. It reports ErrTraceUnavailable
// when no finished trace exists for the digest.
func (s *Server) TraceByDigest(specDigest string) (body []byte, digest string, err error) {
	s.mu.Lock()
	j := s.byDigest[specDigest]
	stored := s.traces[specDigest]
	s.mu.Unlock()
	if j != nil {
		if b, d, jerr := s.JobTrace(j); jerr == nil {
			return b, d, nil
		}
	}
	return s.readTrace(stored)
}

// readTrace returns a finished artifact's body: from memory when the job
// that captured it still holds it, from the durable store otherwise. A nil
// artifact, or one still waiting for its run, is ErrTraceUnavailable.
func (s *Server) readTrace(a *store.TraceArtifact) (body []byte, digest string, err error) {
	if a == nil || a.Digest == "" {
		return nil, "", ErrTraceUnavailable
	}
	if a.Body != nil {
		return a.Body, a.Digest, nil
	}
	if s.cfg.Store != nil {
		if b, rerr := s.cfg.Store.ReadTrace(a.Digest); rerr == nil {
			return b, a.Digest, nil
		}
	}
	return nil, "", ErrTraceUnavailable
}

// Jobs snapshots the status of every queued and running job and of the
// retained terminal jobs, in submission order.
func (s *Server) Jobs() []Status {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	slices.SortFunc(jobs, func(a, b *Job) int { return cmp.Compare(a.seq, b.seq) })
	out := make([]Status, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	return out
}

// Cancel requests cancellation of the job with the given ID. Queued jobs
// finish cancelled immediately; running jobs stop at their next context
// poll. Cancelling a terminal job is a no-op.
func (s *Server) Cancel(id string) error {
	j, err := s.Job(id)
	if err != nil {
		return err
	}
	// Queued jobs cancel synchronously inside requestCancel; the hook runs
	// before Done() closes so waiters see the journal event. Running jobs
	// are counted by the worker when their context poll fires.
	j.requestCancel(func() {
		s.finished.With("cancelled").Inc()
		s.emitTerminalEvent(j, nil)
		s.retire(j)
	})
	return nil
}

// Draining reports whether admission has stopped.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Health is a point-in-time admission snapshot: what /healthz serves and
// what fleet health-gating reads. State is "ok" while the server admits
// jobs and "draining" once Drain has begun; the queue numbers let an
// operator (or a coordinator choosing where to dispatch) see pressure
// before it turns into 429s.
type Health struct {
	// State is "ok" or "draining"; it carries the 200/503 decision so the
	// body alone is meaningful in logs.
	State string `json:"state"`
	// Shards is the worker-shard count (the maximum jobs in flight).
	Shards int `json:"shards"`
	// QueueDepth is the total of jobs admitted but not yet running;
	// Queues breaks it down per shard in shard order.
	QueueDepth int   `json:"queue_depth"`
	Queues     []int `json:"queues"`
	// Inflight is the number of jobs currently executing.
	Inflight int `json:"inflight"`
}

// Health snapshots the server's admission state.
func (s *Server) Health() Health {
	s.mu.Lock()
	h := Health{State: "ok", Shards: len(s.shards), Queues: make([]int, len(s.shards))}
	if s.draining {
		h.State = "draining"
	}
	for i, sh := range s.shards {
		h.Queues[i] = len(sh)
		h.QueueDepth += len(sh)
	}
	s.mu.Unlock()
	h.Inflight = int(s.inflight.Value())
	return h
}

// Drain shuts the server down gracefully: admission stops immediately
// (Submit returns ErrDraining), queued and running jobs get up to window
// to finish, and whatever is still in flight when the window closes is
// cancelled via context. Drain blocks until every worker has exited and
// reports whether all jobs completed without a window-expiry cancellation.
// It is idempotent; later calls return the first call's outcome.
func (s *Server) Drain(window time.Duration) bool {
	clean := true
	s.drainOnce.Do(func() {
		s.mu.Lock()
		s.draining = true
		for _, sh := range s.shards {
			close(sh) // workers exit after draining their queue
		}
		s.mu.Unlock()
		s.emit(EventDrainBegin, "", DrainBeginEvent{WindowMS: window.Seconds() * 1e3})

		done := make(chan struct{})
		go func() {
			s.wg.Wait()
			close(done)
		}()
		timer := time.NewTimer(window)
		defer timer.Stop()
		select {
		case <-done:
		case <-timer.C:
			clean = false
			s.baseCancel() // cancel in-flight job contexts
			<-done
		}
		s.baseCancel()
		s.stopSummaryLoop()
		s.emit(EventDrainEnd, "", DrainEndEvent{Clean: clean})
		if s.ownJournal {
			s.journal.Close()
		}
	})
	return clean
}

// worker drains one shard serially until its queue is closed by Drain.
func (s *Server) worker(shard int) {
	defer s.wg.Done()
	for job := range s.shards[shard] {
		s.queueDepth.Add(-1)
		s.runJob(job)
	}
}

// runJob executes one dequeued job through its terminal state.
func (s *Server) runJob(j *Job) {
	if j.State().Terminal() {
		return // cancelled while queued
	}
	if s.baseCtx.Err() != nil || j.cancelRequested() {
		// The drain window expired (or the client cancelled) before this
		// queued job reached a worker.
		j.finish(StateCancelled, "", func() {
			s.finished.With("cancelled").Inc()
			s.emitTerminalEvent(j, nil)
			s.retire(j)
		})
		return
	}

	timeout := s.cfg.DefaultTimeout
	if j.spec.TimeoutMS > 0 {
		timeout = time.Duration(j.spec.TimeoutMS) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(s.baseCtx, timeout)
	defer cancel()
	if !j.setRunning(cancel) {
		return // client cancellation won the race; Cancel counted it
	}
	s.queueSeconds.Observe(j.started.Sub(j.submitted).Seconds())
	s.inflight.Add(1)
	start := time.Now()
	s.emit(EventJobStarted, j.id, StartedEvent{
		Kind:        j.spec.Kind,
		QueueWaitMS: j.started.Sub(j.submitted).Seconds() * 1e3,
	})

	// rec is the job's one exchange observer: the run wires it into every
	// link, so the terminal event can report where the job's execution
	// time went, stage by stage, and traced jobs capture their schema-v2
	// trace through it.
	// The worker is the only writer of j.trace, so it reads it unlocked.
	traced := j.trace != nil
	rec := newJobRecorder(traced)
	hook := []cos.Option{cos.WithObserver(rec.observe)}
	if traced && j.trace.ProbeEvery > 0 { // admitted only on link and stream jobs
		hook = append(hook, cos.WithProbe(j.trace.ProbeEvery))
	}
	err := run(ctx, j.spec, j.buf, hook)
	if traced && err == nil {
		// Finalize before the finish hooks run: persistTerminal writes the
		// artifact and emitTerminalEvent stamps its digest.
		j.setTrace(rec.artifact(j.trace.ProbeEvery))
	}

	s.inflight.Add(-1)
	s.jobSeconds.Observe(time.Since(start).Seconds())
	// The finish hooks land before Done() fires: "wait for the job, then
	// read its trail / resubmit its spec" always sees the terminal journal
	// event and the populated cache.
	hooks := func(st State) []func() {
		return []func(){
			func() { s.persistTerminal(j, st) },
			func() { s.emitTerminalEvent(j, rec) },
			func() { s.retire(j) },
		}
	}
	switch {
	case err == nil:
		s.finished.With("done").Inc()
		j.finish(StateDone, "", hooks(StateDone)...)
	case errors.Is(err, context.Canceled):
		s.finished.With("cancelled").Inc()
		j.finish(StateCancelled, "", hooks(StateCancelled)...)
	case errors.Is(err, context.DeadlineExceeded):
		s.finished.With("failed").Inc()
		j.finish(StateFailed, fmt.Sprintf("deadline exceeded after %v", timeout), hooks(StateFailed)...)
	default:
		s.finished.With("failed").Inc()
		j.finish(StateFailed, err.Error(), hooks(StateFailed)...)
	}
}

// queueLen is a test hook: total queued jobs across shards.
func (s *Server) queueLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, sh := range s.shards {
		n += len(sh)
	}
	return n
}
