// Package servehttp is the HTTP/JSON transport for internal/serve. It is
// the only place HTTP types touch the serve subsystem — the core stays
// transport-free per the repository's layering rule (net/http never enters
// library packages; the import-hygiene test freezes this).
//
// Routes:
//
//	POST /jobs                  submit a serve.Spec; 202 + job status
//	                            (200 + X-Cos-Cache: hit for a cache hit)
//	GET  /jobs                  list all job statuses
//	GET  /jobs/{key}            one job's status (key: job ID or spec digest)
//	GET  /jobs/{key}/result     stream the job's NDJSON results; a digest
//	                            with no retained job serves the stored body
//	GET  /jobs/{key}/trace      the job's flight-recorder trace (NDJSON,
//	                            schema v2); blocks until the job is
//	                            terminal; 404 trace_unavailable for
//	                            untraced or unfinished jobs
//	GET  /jobs/{key}/trace/report  the same trace rendered as the
//	                            deterministic self-contained HTML report
//	POST /jobs/{key}/cancel     request cancellation
//	GET  /events                stream the journal as NDJSON or SSE
//	GET  /scenarios             list the registered scenario presets
//	GET  /healthz               admission health: 200 while admitting, 503
//	                            while draining, always with a JSON
//	                            serve.Health body (state, shard count,
//	                            per-shard queue depths, inflight)
//
// Every non-2xx response carries one JSON envelope:
//
//	{"error": {"code": "<machine code>", "message": "<detail>",
//	           "retry_after_ms": 1000}}
//
// with retry_after_ms present only on 429. The code vocabulary is the
// Code* constants below; clients switch on codes, never on message text.
// The server retains a bounded window of finished jobs: an older job ID
// answers 404 job_evicted, and its result stays under its spec digest.
// Admission pressure maps to status codes: a full shard queue returns 429
// (code "overloaded") with a Retry-After hint, and a draining server
// returns 503 (code "draining").
//
// POST /jobs honors request headers: X-Cos-Idempotency-Key deduplicates
// retries (a repeated key returns the first admission's job), X-Cos-Trace
// ("1"/"true") asks for a flight-recorder trace, and X-Cos-Probe-Every
// sets the trace's PHY-probe cadence. Bodies over 1 MiB are refused with
// 413. The response's X-Cos-Cache header reports whether the
// content-addressed result cache served the submission ("hit") or the job
// ran ("miss").
package servehttp

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"

	"cos/internal/scenario"
	"cos/internal/serve"
	"cos/internal/trace"
)

// Error codes carried in the error envelope. Stable API: clients branch on
// these, not on HTTP status text or message wording.
const (
	// CodeInvalidSpec: the spec decoded but failed validation.
	CodeInvalidSpec = "invalid_spec"
	// CodeInvalidScenario: the spec names a scenario that is not registered
	// or whose parameters the scenario rejects.
	CodeInvalidScenario = "invalid_scenario"
	// CodeBadRequest: the request itself is malformed (bad JSON, unknown
	// fields, bad query parameters).
	CodeBadRequest = "bad_request"
	// CodeUnknownJob: no job (or stored result) matches the key.
	CodeUnknownJob = "unknown_job"
	// CodeJobEvicted: the key is a job ID the server assigned, but the job
	// has left the retained-job window; its result, if it finished done,
	// is still served under its spec digest.
	CodeJobEvicted = "job_evicted"
	// CodePayloadTooLarge: the request body exceeded MaxSpecBytes.
	CodePayloadTooLarge = "payload_too_large"
	// CodeOverloaded: the shard queue is full; retry after retry_after_ms.
	CodeOverloaded = "overloaded"
	// CodeDraining: the server is shutting down and admits nothing.
	CodeDraining = "draining"
	// CodeNotFound: the requested resource is not served here (e.g. the
	// event journal is disabled).
	CodeNotFound = "not_found"
	// CodeTraceUnavailable: the job exists but has no retrievable
	// flight-recorder trace (untraced submission, not finished done, or
	// the persisted trace body is gone).
	CodeTraceUnavailable = "trace_unavailable"
	// CodeInternal: an unexpected server-side failure.
	CodeInternal = "internal"
)

// ErrorBody is the JSON error envelope for every non-2xx response.
type ErrorBody struct {
	Error ErrorInfo `json:"error"`
}

// ErrorInfo is the envelope's payload.
type ErrorInfo struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// RetryAfterMS hints when to retry (429 only).
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}

// RetryAfterSeconds is the Retry-After header sent with 429 responses;
// retryAfterMS is the same hint inside the envelope.
const (
	RetryAfterSeconds = "1"
	retryAfterMS      = 1000
)

// MaxSpecBytes bounds a POST /jobs body; larger requests get 413.
const MaxSpecBytes = 1 << 20

// Response headers.
const (
	// HeaderCache reports the submit cache outcome: "hit" or "miss".
	HeaderCache = "X-Cos-Cache"
	// HeaderIdempotencyKey is the request header carrying a client retry
	// key (serve.SubmitOptions.IdempotencyKey).
	HeaderIdempotencyKey = "X-Cos-Idempotency-Key"
	// HeaderTrace is the POST /jobs request header asking for a
	// flight-recorder trace ("1" or "true"; serve.SubmitOptions.Trace).
	HeaderTrace = "X-Cos-Trace"
	// HeaderProbeEvery is the POST /jobs request header setting the traced
	// job's PHY-probe cadence (serve.SubmitOptions.ProbeEvery).
	HeaderProbeEvery = "X-Cos-Probe-Every"
	// HeaderTraceDigest reports the served trace body's content address on
	// GET /jobs/{key}/trace responses.
	HeaderTraceDigest = "X-Cos-Trace-Digest"
)

// NewHandler routes the serve API onto s.
func NewHandler(s *serve.Server) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		submit(s, w, r)
	})
	mux.HandleFunc("GET /jobs", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, s.Jobs())
	})
	mux.HandleFunc("GET /jobs/{key}", func(w http.ResponseWriter, r *http.Request) {
		job, ok := lookup(s, w, r)
		if !ok {
			return
		}
		writeJSON(w, http.StatusOK, job.Status())
	})
	mux.HandleFunc("GET /jobs/{key}/result", func(w http.ResponseWriter, r *http.Request) {
		streamResultByKey(s, w, r)
	})
	mux.HandleFunc("GET /jobs/{key}/trace", func(w http.ResponseWriter, r *http.Request) {
		body, digest, ok := resolveTrace(s, w, r)
		if !ok {
			return
		}
		w.Header().Set(HeaderTraceDigest, digest)
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		w.Write(body)
	})
	mux.HandleFunc("GET /jobs/{key}/trace/report", func(w http.ResponseWriter, r *http.Request) {
		body, digest, ok := resolveTrace(s, w, r)
		if !ok {
			return
		}
		events, version, err := trace.ReadVersioned(bytes.NewReader(body))
		if err != nil {
			writeError(w, http.StatusInternalServerError, CodeInternal, err)
			return
		}
		w.Header().Set(HeaderTraceDigest, digest)
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		trace.WriteReport(w, events, version)
	})
	mux.HandleFunc("POST /jobs/{key}/cancel", func(w http.ResponseWriter, r *http.Request) {
		job, ok := lookup(s, w, r)
		if !ok {
			return
		}
		if err := s.Cancel(job.ID()); err != nil {
			writeError(w, http.StatusInternalServerError, CodeInternal, err)
			return
		}
		writeJSON(w, http.StatusOK, job.Status())
	})
	mux.HandleFunc("GET /events", func(w http.ResponseWriter, r *http.Request) {
		handleEvents(s, w, r)
	})
	mux.HandleFunc("GET /scenarios", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, Scenarios())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		// Both status codes carry the same JSON Health body; the state
		// field explains the code, and the queue numbers give health-gating
		// clients (the fleet coordinator) and operators pressure signal.
		h := s.Health()
		code := http.StatusOK
		if h.State != "ok" {
			code = http.StatusServiceUnavailable
		}
		writeJSON(w, code, h)
	})
	return mux
}

func submit(s *serve.Server, w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxSpecBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, CodePayloadTooLarge, err)
		} else {
			writeError(w, http.StatusBadRequest, CodeBadRequest, err)
		}
		return
	}
	spec, err := serve.DecodeSpec(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, err)
		return
	}
	opts := serve.SubmitOptions{
		IdempotencyKey: r.Header.Get(HeaderIdempotencyKey),
	}
	switch v := r.Header.Get(HeaderTrace); v {
	case "", "0", "false":
	case "1", "true":
		opts.Trace = true
	default:
		writeError(w, http.StatusBadRequest, CodeBadRequest,
			errors.New("invalid "+HeaderTrace+" header: "+v))
		return
	}
	if v := r.Header.Get(HeaderProbeEvery); v != "" {
		n, perr := strconv.Atoi(v)
		if perr != nil {
			writeError(w, http.StatusBadRequest, CodeBadRequest,
				errors.New("invalid "+HeaderProbeEvery+" header: "+v))
			return
		}
		opts.ProbeEvery = n
	}
	job, err := s.SubmitWith(spec, opts)
	switch {
	case err == nil:
		w.Header().Set("Location", "/jobs/"+job.ID())
		if job.Cached() {
			// Born terminal from the result cache: the full stream already
			// exists, so this is a 200, not an accepted-for-processing 202.
			w.Header().Set(HeaderCache, "hit")
			writeJSON(w, http.StatusOK, job.Status())
		} else {
			w.Header().Set(HeaderCache, "miss")
			writeJSON(w, http.StatusAccepted, job.Status())
		}
	case errors.Is(err, serve.ErrOverloaded):
		w.Header().Set("Retry-After", RetryAfterSeconds)
		writeError(w, http.StatusTooManyRequests, CodeOverloaded, err)
	case errors.Is(err, serve.ErrDraining):
		writeError(w, http.StatusServiceUnavailable, CodeDraining, err)
	case errors.Is(err, serve.ErrInvalidTraceOptions):
		writeError(w, http.StatusBadRequest, CodeBadRequest, err)
	case errors.Is(err, serve.ErrInvalidScenario):
		writeError(w, http.StatusBadRequest, CodeInvalidScenario, err)
	default: // spec validation
		writeError(w, http.StatusBadRequest, CodeInvalidSpec, err)
	}
}

// ScenarioInfo is one GET /scenarios entry: a registered preset with its
// component names made explicit (defaults filled in) and the preset's
// tunable parameter vector, if any.
type ScenarioInfo struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	Channel     string `json:"channel"`
	Interferer  string `json:"interferer,omitempty"`
	Embedding   string `json:"embedding"`
	Mobility    bool   `json:"mobility,omitempty"`
	// ParamsFor names the component user-supplied parameters configure
	// ("channel", "interferer", or "embedding"); Params are its defaults.
	ParamsFor string    `json:"params_for,omitempty"`
	Params    []float64 `json:"params,omitempty"`
}

// Scenarios returns the GET /scenarios payload: every registered scenario
// preset, sorted by name — deterministic across processes and restarts.
func Scenarios() []ScenarioInfo {
	list := scenario.List()
	out := make([]ScenarioInfo, 0, len(list))
	for _, s := range list {
		info := ScenarioInfo{
			Name:        s.Name,
			Description: s.Description,
			Channel:     s.Channel,
			Interferer:  s.Interferer,
			Embedding:   s.Embedding,
			Mobility:    s.Mobility,
			ParamsFor:   s.ParamsFor,
			Params:      s.Params(),
		}
		if info.Channel == "" {
			info.Channel = scenario.DefaultChannel
		}
		if info.Embedding == "" {
			info.Embedding = scenario.DefaultEmbedding
		}
		out = append(out, info)
	}
	return out
}

// resolveTrace resolves {key} to a finished flight-recorder trace body
// and its content address. A live job is waited to its terminal state
// first (honoring client disconnect). Digest keys always consult
// TraceByDigest, which prefers the newest job's capture but falls back
// to the persisted trace artifact — so a digest stays servable after a
// daemon restart even when an untraced cache-hit resubmission has since
// become the digest's newest job. On failure the error envelope has
// already been written.
func resolveTrace(s *serve.Server, w http.ResponseWriter, r *http.Request) (body []byte, digest string, ok bool) {
	key := r.PathValue("key")
	if serve.IsDigest(key) {
		job, jerr := s.JobByDigest(key)
		if jerr == nil {
			select {
			case <-job.Done():
			case <-r.Context().Done():
				return nil, "", false
			}
		}
		b, d, terr := s.TraceByDigest(key)
		if terr == nil {
			return b, d, true
		}
		if jerr != nil {
			writeError(w, http.StatusNotFound, CodeUnknownJob, serve.ErrUnknownJob)
		} else {
			writeError(w, http.StatusNotFound, CodeTraceUnavailable, terr)
		}
		return nil, "", false
	}
	job, err := s.Job(key)
	if err != nil {
		writeLookupError(w, err)
		return nil, "", false
	}
	select {
	case <-job.Done():
	case <-r.Context().Done():
		return nil, "", false
	}
	b, d, err := s.JobTrace(job)
	if err != nil {
		writeError(w, http.StatusNotFound, CodeTraceUnavailable, err)
		return nil, "", false
	}
	return b, d, true
}

// lookup resolves the {key} path element — a job ID, or a spec digest
// resolving to the newest job for that spec — to a live job.
func lookup(s *serve.Server, w http.ResponseWriter, r *http.Request) (*serve.Job, bool) {
	key := r.PathValue("key")
	var (
		job *serve.Job
		err error
	)
	if serve.IsDigest(key) {
		job, err = s.JobByDigest(key)
	} else {
		job, err = s.Job(key)
	}
	if err != nil {
		writeLookupError(w, err)
		return nil, false
	}
	return job, true
}

// writeLookupError answers a failed job lookup with 404: job_evicted for
// an assigned ID the retained window has dropped, unknown_job otherwise.
func writeLookupError(w http.ResponseWriter, err error) {
	code := CodeUnknownJob
	if errors.Is(err, serve.ErrJobEvicted) {
		code = CodeJobEvicted
	}
	writeError(w, http.StatusNotFound, code, err)
}

// streamResultByKey serves GET /jobs/{key}/result. A job ID (or a digest
// with a retained job) streams that job's NDJSON as it is produced. A
// digest with no retained job — after eviction or a daemon restart —
// falls back to the content-addressed result store and serves the
// finished body directly.
func streamResultByKey(s *serve.Server, w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if serve.IsDigest(key) {
		if job, err := s.JobByDigest(key); err == nil {
			streamResult(job, w, r)
			return
		}
		if body, ok := s.ResultByDigest(key); ok {
			w.Header().Set(HeaderCache, "hit")
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
			w.Write(body)
			return
		}
		writeError(w, http.StatusNotFound, CodeUnknownJob, serve.ErrUnknownJob)
		return
	}
	job, err := s.Job(key)
	if err != nil {
		writeLookupError(w, err)
		return
	}
	streamResult(job, w, r)
}

// streamResult streams the job's NDJSON straight from its result log,
// flushed chunk by chunk so records arrive while the job is still running.
// It ends at the job's terminal state or as soon as the client
// disconnects, even while the job is between records.
func streamResult(job *serve.Job, w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	job.WriteResult(r.Context(), w)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeError sends the typed error envelope. The retry hint rides along
// automatically for CodeOverloaded.
func writeError(w http.ResponseWriter, status int, code string, err error) {
	info := ErrorInfo{Code: code, Message: err.Error()}
	if code == CodeOverloaded {
		info.RetryAfterMS = retryAfterMS
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(ErrorBody{Error: info})
}
