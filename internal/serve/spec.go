package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"

	"cos/internal/bits"
	"cos/internal/channel"
	"cos/internal/experiments"
	"cos/internal/phy"
	"cos/internal/scenario"
)

// ErrInvalidScenario: the spec names a scenario the registry does not know
// or parameterizes one badly (HTTP 400, code "invalid_scenario").
var ErrInvalidScenario = errors.New("serve: invalid scenario")

// Kind selects which simulation workload a job runs.
type Kind string

const (
	// KindLink pushes packets through one CoS link and reports per-packet
	// delivery, detection, and SNR measurements.
	KindLink Kind = "link"
	// KindStream performs repeated SendStream transfers (multi-packet
	// control messages) over one framed link.
	KindStream Kind = "stream"
	// KindWLAN runs the access-coordination network simulation, comparing
	// CoS grants against explicit grant frames.
	KindWLAN Kind = "wlan"
	// KindFigureTask runs a single point-task of a figure
	// (experiments.Tasks) and streams its one record. It is the unit the
	// fleet coordinator fans out: every task has its own spec digest, so
	// the content-addressed cache deduplicates across backends.
	KindFigureTask Kind = "figure_task"
)

// Spec describes one simulation job. It doubles as the submit wire format
// (plain JSON), but carries no transport types — internal/serve/http owns
// the HTTP side.
//
// A job's entire output is a pure function of its normalized Spec: every
// random draw derives from Seed, never from scheduling, wall clock, or
// which shard ran it. Two submissions of an identical Spec return
// byte-identical result streams. The canonical form of that guarantee is
// Canonical/Digest below: two specs are equal (produce the same normalized
// spec, and therefore the same result stream) if and only if their digests
// are equal.
type Spec struct {
	// Kind selects the workload (required).
	Kind Kind `json:"kind"`
	// Seed drives all randomness (default 1).
	Seed int64 `json:"seed,omitempty"`
	// TimeoutMS overrides the server's default per-job deadline, in
	// milliseconds (0 = server default).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`

	// SNRdB is the true channel SNR for link/stream/wlan jobs (default 18).
	SNRdB float64 `json:"snr_db,omitempty"`
	// Position is the receiver placement for link/stream jobs: "A", "B",
	// "C", or "flat" (default "B").
	Position string `json:"position,omitempty"`
	// Mobile enables the walking-speed channel for link/stream jobs.
	Mobile bool `json:"mobile,omitempty"`
	// PayloadBytes is the data payload per packet (default 1024, max
	// 4091: the payload and its FCS fit one 802.11a PSDU).
	PayloadBytes int `json:"payload_bytes,omitempty"`

	// Packets is the packet count for link jobs (default 100, max 1e6).
	Packets int `json:"packets,omitempty"`
	// ControlBits requests control bits per packet for link jobs
	// (default 32; capped by the per-packet budget). 0 is the absent
	// value and normalizes to 32, so a link job always carries control
	// bits: a data-only link job cannot be requested.
	ControlBits int `json:"control_bits,omitempty"`

	// StreamBits is the control payload length per SendStream transfer
	// (default 24, max 4096).
	StreamBits int `json:"stream_bits,omitempty"`
	// Sends is the number of stream transfers a stream job performs
	// (default 10, max 1e4).
	Sends int `json:"sends,omitempty"`

	// Stations is the WLAN station count (default 3).
	Stations int `json:"stations,omitempty"`
	// Rounds is the WLAN scheduling round count (default 100, max 1e6).
	Rounds int `json:"rounds,omitempty"`

	// Figure is the experiment ID for figure_task jobs (see
	// experiments.IDs).
	Figure string `json:"figure,omitempty"`
	// Scale shrinks figure sample sizes (default 0.1; 1 = publication).
	Scale float64 `json:"scale,omitempty"`
	// Workers is read by no job: a figure_task runs one task on one
	// goroutine. The field remains only because v1 canonical bytes carry
	// "workers":1, so Validate accepts 0 (absent) and 1 and nothing else —
	// any other value would split one job's digest for identical work.
	Workers int `json:"workers,omitempty"`
	// Task is the point-task index for figure_task jobs: which task of the
	// figure's decomposition (experiments.Tasks under this spec's figure,
	// scale, seed and scenario) this job runs. Valid only for figure_task;
	// encoded canonically only for that kind, so every other kind keeps
	// its pre-task digest.
	Task int `json:"task,omitempty"`

	// Scenario selects a registered world scenario by reference — "pulse",
	// "hybrid-bscpec", "ofdm-padding:..." (see internal/scenario). Empty
	// selects the default scenario and encodes canonically as the absent
	// field, so every pre-scenario spec keeps its v1 digest.
	Scenario string `json:"scenario,omitempty"`
}

// normalized returns the spec with defaults applied. Execution, the
// determinism guarantee, and the canonical encoding are all defined over
// the normalized form.
func (s Spec) normalized() Spec {
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.SNRdB == 0 {
		s.SNRdB = 18
	}
	if s.Position == "" {
		s.Position = "B"
	}
	if pos, err := channel.ParsePosition(s.Position); err == nil {
		// Fold the case-insensitive names onto their canonical spellings,
		// so "b" and "B" — the same geometry — share one digest. Unknown
		// names pass through for Validate to reject.
		s.Position = pos.Name()
	}
	if s.PayloadBytes == 0 {
		s.PayloadBytes = 1024
	}
	if s.Packets == 0 {
		s.Packets = 100
	}
	if s.ControlBits == 0 && s.Kind == KindLink {
		s.ControlBits = 32
	}
	if s.StreamBits == 0 {
		s.StreamBits = 24
	}
	if s.Sends == 0 {
		s.Sends = 10
	}
	if s.Stations == 0 {
		s.Stations = 3
	}
	if s.Rounds == 0 {
		s.Rounds = 100
	}
	if s.Scale == 0 {
		s.Scale = 0.1
	}
	if s.Workers == 0 {
		s.Workers = 1
	}
	if canon, err := scenario.CanonicalRef(s.Scenario); err == nil {
		// Fold aliases onto one digest: absent, "default", and a
		// parameterized spelling of a preset's own defaults are the same
		// world. Invalid references pass through for Validate to reject.
		s.Scenario = canon
	}
	return s
}

// SpecSchemaVersion is the version stamped into every canonical encoding.
// It changes only when the canonical byte layout changes — adding a spec
// field, renaming one, or altering a default all bump it, because any of
// those silently re-keys every digest.
const SpecSchemaVersion = 1

// canonicalSpec is the inner object of the canonical encoding. Its fields
// are declared in sorted key order, so encoding/json writes the keys
// sorted; every field but scenario and task is always present, so "absent"
// and "default" collapse onto the same bytes.
type canonicalSpec struct {
	ControlBits  int     `json:"control_bits"`
	Figure       string  `json:"figure"`
	Kind         Kind    `json:"kind"`
	Mobile       bool    `json:"mobile"`
	Packets      int     `json:"packets"`
	PayloadBytes int     `json:"payload_bytes"`
	Position     string  `json:"position"`
	Rounds       int     `json:"rounds"`
	Scale        float64 `json:"scale"`
	// Scenario is present only when a non-default scenario is selected:
	// pre-scenario specs keep their exact v1 canonical bytes
	// (testdata/spec_canonical_v1.golden) without a schema bump.
	Scenario   string  `json:"scenario,omitempty"`
	Seed       int64   `json:"seed"`
	Sends      int     `json:"sends"`
	SNRdB      float64 `json:"snr_db"`
	Stations   int     `json:"stations"`
	StreamBits int     `json:"stream_bits"`
	// Task exists only for figure_task jobs (the scenario-field
	// precedent): every other kind keeps its v1 digest, and each
	// point-task of a figure gets its own content address, which is what
	// lets the result cache deduplicate tasks across a fleet.
	Task      *int  `json:"task,omitempty"`
	TimeoutMS int64 `json:"timeout_ms"`
	Workers   int   `json:"workers"`
}

// Canonical returns the deterministic, versioned byte encoding of the
// normalized spec: a JSON object {"spec": {...}, "spec_schema": N} whose
// inner object carries every spec field explicitly (defaults applied, keys
// sorted). The encoding is the content-address domain for the result
// cache and the WAL — byte-for-byte stability is pinned by the
// testdata/spec_canonical_v1.golden test, so treat any diff there as a
// schema change requiring a SpecSchemaVersion bump.
func (s Spec) Canonical() ([]byte, error) {
	n := s.normalized()
	var task *int
	if n.Kind == KindFigureTask {
		task = &n.Task
	}
	b, err := json.Marshal(struct {
		Spec   canonicalSpec `json:"spec"`
		Schema int           `json:"spec_schema"`
	}{
		Spec: canonicalSpec{
			ControlBits:  n.ControlBits,
			Figure:       n.Figure,
			Kind:         n.Kind,
			Mobile:       n.Mobile,
			Packets:      n.Packets,
			PayloadBytes: n.PayloadBytes,
			Position:     n.Position,
			Rounds:       n.Rounds,
			Scale:        n.Scale,
			Scenario:     n.Scenario,
			Seed:         n.Seed,
			Sends:        n.Sends,
			SNRdB:        n.SNRdB,
			Stations:     n.Stations,
			StreamBits:   n.StreamBits,
			Task:         task,
			TimeoutMS:    n.TimeoutMS,
			Workers:      n.Workers,
		},
		Schema: SpecSchemaVersion,
	})
	if err != nil {
		return nil, fmt.Errorf("serve: canonical encoding: %w", err)
	}
	return b, nil
}

// Digest returns the SHA-256 of the canonical encoding as lowercase hex.
// It is the spec's content address: equal digests mean equal normalized
// specs mean byte-identical result streams. The empty string is returned
// only if the canonical encoding fails, which cannot happen for a Spec
// built from plain values.
func (s Spec) Digest() string {
	b, err := s.Canonical()
	if err != nil {
		return ""
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// digestHexLen is the length of a Digest string (SHA-256 as hex).
const digestHexLen = 2 * sha256.Size

// IsDigest reports whether key is shaped like a spec digest (64 lowercase
// hex characters). Job IDs ("job-000001") never collide with this shape,
// so one URL namespace can address both.
func IsDigest(key string) bool {
	if len(key) != digestHexLen {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// DecodeSpec parses a JSON spec, rejecting unknown fields and trailing
// data. Strict decoding is part of the digest contract: if misspelled
// fields were silently dropped, two *different* request bodies would
// collapse onto one digest and a client could be served a cached result
// for a spec it never meant to submit.
func DecodeSpec(data []byte) (Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("serve: decoding spec: %w", err)
	}
	if dec.More() {
		return Spec{}, fmt.Errorf("serve: decoding spec: trailing data after JSON object")
	}
	return s, nil
}

// DecodeCanonical parses bytes produced by Canonical, checking the schema
// version. The WAL stores specs in canonical form, so recovery replays
// through here.
func DecodeCanonical(data []byte) (Spec, error) {
	var wrap struct {
		Schema int             `json:"spec_schema"`
		Spec   json.RawMessage `json:"spec"`
	}
	if err := json.Unmarshal(data, &wrap); err != nil {
		return Spec{}, fmt.Errorf("serve: decoding canonical spec: %w", err)
	}
	if wrap.Schema != SpecSchemaVersion {
		return Spec{}, fmt.Errorf("serve: canonical spec schema %d (this build speaks %d)", wrap.Schema, SpecSchemaVersion)
	}
	return DecodeSpec(wrap.Spec)
}

// Validate checks a normalized spec before admission, so malformed jobs
// are rejected at submit time instead of burning a worker slot.
func (s Spec) Validate() error {
	s = s.normalized()
	switch s.Kind {
	case KindLink, KindStream, KindWLAN, KindFigureTask:
	case "":
		return fmt.Errorf("serve: spec missing kind (want link, stream, wlan or figure_task)")
	case "figure":
		return fmt.Errorf(`serve: kind "figure" is retired: submit one figure_task job per point-task, as cos-figures -fleet does`)
	default:
		return fmt.Errorf("serve: unknown kind %q (want link, stream, wlan or figure_task)", s.Kind)
	}
	if s.TimeoutMS < 0 {
		return fmt.Errorf("serve: timeout_ms %d must be non-negative", s.TimeoutMS)
	}
	if s.Workers != 1 {
		return fmt.Errorf("serve: workers %d: only 0 or 1 is accepted (no job reads it)", s.Workers)
	}
	if s.Task != 0 && s.Kind != KindFigureTask {
		return fmt.Errorf("serve: task is only valid for figure_task jobs (kind %q)", s.Kind)
	}
	if s.Scenario != "" {
		if _, err := scenario.FromRef(s.Scenario); err != nil {
			return fmt.Errorf("%w: %v", ErrInvalidScenario, err)
		}
	}
	if s.Kind == KindLink || s.Kind == KindStream {
		if _, err := channel.ParsePosition(s.Position); err != nil {
			return err
		}
	}
	if s.SNRdB < -10 || s.SNRdB > 60 {
		return fmt.Errorf("serve: snr_db %v outside [-10,60]", s.SNRdB)
	}
	// The payload and its FCS must fit one 802.11a PSDU.
	if maxPayload := phy.MaxPSDUBytes - bits.FCSLen; s.PayloadBytes < 16 || s.PayloadBytes > maxPayload {
		return fmt.Errorf("serve: payload_bytes %d outside [16,%d]", s.PayloadBytes, maxPayload)
	}
	switch s.Kind {
	case KindLink:
		if s.Packets < 1 || s.Packets > 1e6 {
			return fmt.Errorf("serve: packets %d outside [1,1000000]", s.Packets)
		}
		if s.ControlBits < 0 {
			return fmt.Errorf("serve: control_bits %d must be non-negative", s.ControlBits)
		}
	case KindStream:
		if s.StreamBits < 1 || s.StreamBits > 4096 {
			return fmt.Errorf("serve: stream_bits %d outside [1,4096]", s.StreamBits)
		}
		if s.Sends < 1 || s.Sends > 1e4 {
			return fmt.Errorf("serve: sends %d outside [1,10000]", s.Sends)
		}
	case KindWLAN:
		if s.Stations < 1 || s.Stations > 15 {
			return fmt.Errorf("serve: stations %d outside [1,15]", s.Stations)
		}
		if s.Rounds < 1 || s.Rounds > 1e6 {
			return fmt.Errorf("serve: rounds %d outside [1,1000000]", s.Rounds)
		}
	case KindFigureTask:
		if s.Figure == "" {
			return fmt.Errorf("serve: figure_task job missing figure ID (known: %v)", experiments.IDs())
		}
		if s.Scale < 0 || s.Scale > 1 {
			return fmt.Errorf("serve: scale %v outside (0,1]", s.Scale)
		}
		ts, ok := experiments.Tasks(s.Figure, s.taskRunOptions())
		if !ok {
			return fmt.Errorf("serve: unknown figure %q (known: %v)", s.Figure, experiments.IDs())
		}
		if n := ts.NumTasks(); s.Task < 0 || s.Task >= n {
			return fmt.Errorf("serve: task %d outside [0,%d) for figure %q at scale %v", s.Task, n, s.Figure, s.Scale)
		}
	}
	return nil
}

// taskRunOptions maps a normalized figure_task spec onto the RunOptions
// that parameterize its figure's decomposition.
func (s Spec) taskRunOptions() experiments.RunOptions {
	return experiments.RunOptions{Scale: s.Scale, Seed: s.Seed, Scenario: s.Scenario}
}
