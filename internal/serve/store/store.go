// Package store is cos-serve's durable job store: a write-ahead log of
// job submissions and completions plus content-addressed result body
// files, all under one data directory. A daemon restarted on the same
// directory recovers its world — completed results re-serve byte-identical
// NDJSON from the cache, and submissions that never reached a terminal
// record are re-admitted and re-run.
//
// Layout:
//
//	<dir>/wal.log              append-only JSON lines (submit/result records)
//	<dir>/results/<digest>     completed NDJSON bodies, one file per digest
//	<dir>/traces/<digest>      flight-recorder trace bodies, keyed by the
//	                           trace's own SHA-256 (not the spec digest)
//
// Three rules shape the design:
//
//   - Result-before-record. A result body file is written and renamed into
//     place (atomically, via a temp file) before its WAL record is
//     appended, so a "done" record always points at a readable body.
//
//   - Digest-keyed replay. Recovery folds the WAL per spec digest, not per
//     job ID: job IDs restart at 1 with each daemon process, but the
//     digest is stable across restarts, and one re-run satisfies every
//     pending submission of the same spec. A digest that ever reached
//     "done" stays done — results are content-addressed, so a later
//     submission of the same digest cannot change the bytes.
//
//   - Tolerant tail. A crash mid-append leaves a truncated last line; Open
//     replays up to the last complete, well-formed record and truncates
//     the file there, so the WAL is always append-clean after recovery.
//
// The package is stdlib-only and transport-free; the repository's
// import-hygiene test keeps net/http out of its closure.
package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

const (
	walName    = "wal.log"
	resultsDir = "results"
	tracesDir  = "traces"
	// walVersion stamps every record; readers refuse records from a newer
	// layout rather than misinterpreting them.
	walVersion = 1
)

// Record ops.
const (
	opSubmit = "submit"
	opResult = "result"
)

// record is one WAL line. Submit records carry the canonical spec;
// result records carry the terminal state ("done" or "failed" — cancelled
// jobs write no record, so they replay as pending and re-run).
type record struct {
	WAL    int             `json:"wal"`
	Op     string          `json:"op"`
	Job    string          `json:"job"`
	Digest string          `json:"digest"`
	Spec   json.RawMessage `json:"spec,omitempty"`
	State  string          `json:"state,omitempty"`
	Error  string          `json:"error,omitempty"`
	Bytes  int             `json:"bytes,omitempty"`
	// Trace is the content address of the job's flight-recorder trace body
	// (the trace's own SHA-256, stored under traces/); ProbeEvery is the
	// PHY-probe cadence the trace was captured with. Present only on "done"
	// records of traced jobs.
	Trace      string `json:"trace,omitempty"`
	TraceBytes int    `json:"trace_bytes,omitempty"`
	ProbeEvery int    `json:"probe_every,omitempty"`
	TMS        int64  `json:"t_ms"` // wall-clock stamp, informational only
}

// PendingJob is a submission with no terminal record: work to re-admit.
type PendingJob struct {
	// Job is the ID the submission carried when it was logged (a past
	// process's numbering — informational, not resolvable in this one).
	Job string
	// Digest is the spec's content address.
	Digest string
	// Spec is the canonical encoding (serve.DecodeCanonical parses it).
	Spec []byte
}

// CompletedJob is a digest with a durable "done" result body.
type CompletedJob struct {
	Job    string
	Digest string
	// Trace is the job's flight-recorder trace artifact, without its body
	// (ReadTrace returns it), when one was captured AND its body file is
	// still readable; nil otherwise (untraced job, hostile digest in the
	// record, or a trace body deleted out from under the store — all
	// demote to "trace unavailable" without failing recovery). Its Bytes
	// is the body's size on disk.
	Trace *TraceArtifact
}

// Recovery is what replaying the WAL found.
type Recovery struct {
	// Completed digests have result bodies readable via ReadResult.
	Completed []CompletedJob
	// Pending submissions never reached a terminal record (crash, drain
	// cancellation) and should be re-admitted.
	Pending []PendingJob
	// Failed digests reached a terminal "failed" record; they are settled
	// (not re-run, not cached).
	Failed []string
	// Records counts well-formed WAL records replayed.
	Records int
	// TruncatedBytes is how much of a torn WAL tail was discarded (0 for
	// a clean log).
	TruncatedBytes int64
}

// Store is an open durable job store. Create one with Open; Log methods
// are safe for concurrent use.
type Store struct {
	dir string

	mu  sync.Mutex
	f   *os.File
	rec Recovery
	now func() int64 // ms since epoch; replaceable in tests
}

// Open creates dir (and its results/ subdirectory) if needed, replays the
// WAL, truncates any torn tail, and opens the log for appending.
func Open(dir string) (*Store, error) {
	for _, sub := range []string{resultsDir, tracesDir} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	s := &Store{
		dir: dir,
		now: func() int64 { return time.Now().UnixMilli() },
	}
	if err := s.replay(); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(s.walPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s.f = f
	return s, nil
}

func (s *Store) walPath() string { return filepath.Join(s.dir, walName) }

// Recovery returns what Open found in the WAL. The slices are the
// caller's to keep; they are not updated by later appends.
func (s *Store) Recovery() Recovery { return s.rec }

// replay folds the WAL into the recovery state and truncates a torn tail.
func (s *Store) replay() error {
	data, err := os.ReadFile(s.walPath())
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}

	type digestState struct {
		state string // "pending", "done", "failed"
		job   string
		spec  json.RawMessage
		trace *TraceArtifact // from the "done" record; Bytes is set on assembly
		order int            // first-submit position, to keep re-admission in order
	}
	states := map[string]*digestState{}
	order := 0

	goodOffset := int64(0)
	rest := data
	for len(rest) > 0 {
		nl := bytes.IndexByte(rest, '\n')
		if nl < 0 {
			break // torn tail: final record never finished its newline
		}
		line := rest[:nl]
		var r record
		if err := json.Unmarshal(line, &r); err != nil || r.WAL != walVersion {
			break // corrupt or foreign record: stop trusting the log here
		}
		switch {
		case !validDigest(r.Digest):
			// A digest that is not lowercase hex names no result file, and
			// "", ".." or "../results" would make the body check below stat
			// a directory: skip the record, as ReadResult would refuse it.
		case r.Op == opSubmit:
			ds := states[r.Digest]
			if ds == nil {
				states[r.Digest] = &digestState{state: "pending", job: r.Job, spec: r.Spec, order: order}
				order++
			} else if ds.state == "failed" && r.Job != ds.job {
				// A deliberate resubmit after failure: eligible to run again.
				// (Same job ID means this is the failed job's own submit
				// record landing after its result — appends from admission
				// and completion race across goroutines — not a retry.)
				ds.state = "pending"
				ds.job, ds.spec = r.Job, r.Spec
			}
			// pending stays pending (one re-run covers every duplicate);
			// done stays done (content-addressed results cannot change).
		case r.Op == opResult:
			ds := states[r.Digest]
			if ds == nil {
				ds = &digestState{job: r.Job, order: order}
				order++
				states[r.Digest] = ds
			}
			if ds.state != "done" { // done is sticky
				if r.State == "done" {
					ds.state = "done"
					// Hostile or malformed trace digests never become file
					// lookups: the job simply replays as untraced.
					if validDigest(r.Trace) {
						ds.trace = &TraceArtifact{Digest: r.Trace, ProbeEvery: r.ProbeEvery}
					}
				} else {
					ds.state = "failed"
					ds.job = r.Job // pin the failed job for the resubmit rule
				}
			}
		default:
			// Unknown op from a future writer: skip the record but keep
			// replaying — the fields we understand are still versioned.
		}
		s.rec.Records++
		goodOffset += int64(nl + 1)
		rest = rest[nl+1:]
	}
	if goodOffset < int64(len(data)) {
		s.rec.TruncatedBytes = int64(len(data)) - goodOffset
		if err := os.Truncate(s.walPath(), goodOffset); err != nil {
			return fmt.Errorf("store: truncating torn WAL tail: %w", err)
		}
	}

	// Assemble recovery lists in first-submission order so re-admission
	// preserves the original queue order.
	type ordered struct {
		order int
		d     string
	}
	var all []ordered
	for d, ds := range states {
		all = append(all, ordered{ds.order, d})
	}
	for i := 1; i < len(all); i++ { // insertion sort; recovery sets are small
		for k := i; k > 0 && all[k-1].order > all[k].order; k-- {
			all[k-1], all[k] = all[k], all[k-1]
		}
	}
	for _, o := range all {
		ds := states[o.d]
		switch ds.state {
		case "done":
			// Trust the record only if the body it promises is readable:
			// result-before-record ordering makes a missing file possible
			// only through external deletion, which demotes to pending.
			if _, err := os.Stat(s.blobPath(resultsDir, o.d)); err == nil {
				cj := CompletedJob{Job: ds.job, Digest: o.d}
				// The trace artifact is best-effort: a missing body demotes
				// the job to "trace unavailable", never to pending.
				if ds.trace != nil {
					if fi, err := os.Stat(s.blobPath(tracesDir, ds.trace.Digest)); err == nil {
						ds.trace.Bytes = int(fi.Size())
						cj.Trace = ds.trace
					}
				}
				s.rec.Completed = append(s.rec.Completed, cj)
			} else if len(ds.spec) > 0 {
				s.rec.Pending = append(s.rec.Pending, PendingJob{Job: ds.job, Digest: o.d, Spec: ds.spec})
			}
		case "failed":
			s.rec.Failed = append(s.rec.Failed, o.d)
		case "pending":
			if len(ds.spec) > 0 {
				s.rec.Pending = append(s.rec.Pending, PendingJob{Job: ds.job, Digest: o.d, Spec: ds.spec})
			}
		}
	}
	return nil
}

// append writes one record line and syncs the log. Callers hold s.mu.
func (s *Store) appendLocked(r record) error {
	r.WAL = walVersion
	r.TMS = s.now()
	line, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := s.f.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// LogSubmit records an admitted job: its ID, digest, and canonical spec
// (the bytes Spec.Canonical produced — recovery re-admits from exactly
// these).
func (s *Store) LogSubmit(jobID, digest string, canonicalSpec []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return errors.New("store: closed")
	}
	return s.appendLocked(record{
		Op: opSubmit, Job: jobID, Digest: digest, Spec: canonicalSpec,
	})
}

// TraceArtifact is a flight-recorder trace: its own SHA-256 content
// address, the probe cadence it was captured with, the body's length, and
// the NDJSON body itself. Digest is empty until the trace is captured, and
// Body is nil once only the store holds the bytes (ReadTrace returns them
// by Digest). Holders replace an artifact rather than modify it.
type TraceArtifact struct {
	Digest     string
	ProbeEvery int
	Bytes      int
	Body       []byte
}

// LogResult records a terminal state. For state "done", body is first
// written to the content-addressed result file (atomically, temp +
// rename) so the WAL record never points at missing bytes; a non-nil
// trace artifact is written the same way (trace-before-record) and its
// digest stamped into the record. For "failed", body and trace are
// ignored and only the settled marker is logged. Cancelled jobs should
// not be logged at all — absence is what makes them re-run.
func (s *Store) LogResult(jobID, digest, state, errMsg string, body []byte, tr *TraceArtifact) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return errors.New("store: closed")
	}
	rec := record{
		Op: opResult, Job: jobID, Digest: digest, State: state, Error: errMsg, Bytes: len(body),
	}
	if state == "done" {
		if err := s.writeBlobLocked(resultsDir, digest, body); err != nil {
			return err
		}
		if tr != nil {
			if err := s.writeBlobLocked(tracesDir, tr.Digest, tr.Body); err != nil {
				return err
			}
			rec.Trace = tr.Digest
			rec.TraceBytes = len(tr.Body)
			rec.ProbeEvery = tr.ProbeEvery
		}
	}
	return s.appendLocked(rec)
}

// blobPath names a content-addressed body file under one subdirectory.
func (s *Store) blobPath(sub, digest string) string {
	return filepath.Join(s.dir, sub, digest)
}

// writeBlobLocked writes a content-addressed body file atomically under
// the given subdirectory. Re-writing an existing digest is a no-op: the
// bytes are content-addressed.
func (s *Store) writeBlobLocked(sub, digest string, body []byte) error {
	if !validDigest(digest) {
		return fmt.Errorf("store: invalid digest %q", digest)
	}
	path := s.blobPath(sub, digest)
	if _, err := os.Stat(path); err == nil {
		return nil
	}
	tmp, err := os.CreateTemp(filepath.Join(s.dir, sub), "tmp-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(body); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// ReadResult returns the stored NDJSON body for a completed digest.
func (s *Store) ReadResult(digest string) ([]byte, error) {
	return s.readBlob(resultsDir, digest)
}

// ReadTrace returns the stored flight-recorder trace body addressed by
// the trace's own digest.
func (s *Store) ReadTrace(digest string) ([]byte, error) {
	return s.readBlob(tracesDir, digest)
}

// readBlob reads a content-addressed body file, refusing any name that is
// not a digest.
func (s *Store) readBlob(sub, digest string) ([]byte, error) {
	if !validDigest(digest) {
		return nil, fmt.Errorf("store: invalid digest %q", digest)
	}
	b, err := os.ReadFile(s.blobPath(sub, digest))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return b, nil
}

// validDigest guards the filesystem namespace: result files are named by
// digests, which are lowercase hex — anything else (path separators,
// dots) is refused.
func validDigest(d string) bool {
	if d == "" {
		return false
	}
	for i := 0; i < len(d); i++ {
		c := d[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Close syncs and closes the WAL. Idempotent; Log calls after Close fail.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Sync()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	s.f = nil
	return err
}
