package store

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// spec is a stand-in canonical encoding; the store treats it as opaque.
func spec(kind string) []byte {
	return []byte(`{"spec":{"kind":"` + kind + `"},"spec_schema":1}`)
}

const (
	digA = "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"
	digB = "bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb"
	digC = "cccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccc"
)

func open(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestStoreReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)

	body := []byte(`{"type":"packet"}` + "\n")
	if err := s.LogSubmit("job-000001", digA, spec("link")); err != nil {
		t.Fatal(err)
	}
	if err := s.LogSubmit("job-000002", digB, spec("stream")); err != nil {
		t.Fatal(err)
	}
	if err := s.LogResult("job-000001", digA, "done", "", body, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.LogSubmit("job-000003", digC, spec("wlan")); err != nil {
		t.Fatal(err)
	}
	if err := s.LogResult("job-000003", digC, "failed", "boom", nil, nil); err != nil {
		t.Fatal(err)
	}
	s.Close()

	re := open(t, dir)
	rec := re.Recovery()
	if rec.TruncatedBytes != 0 {
		t.Fatalf("clean WAL reported %d truncated bytes", rec.TruncatedBytes)
	}
	if len(rec.Completed) != 1 || rec.Completed[0].Digest != digA {
		t.Fatalf("Completed = %+v, want [%s]", rec.Completed, digA)
	}
	if len(rec.Pending) != 1 || rec.Pending[0].Digest != digB || rec.Pending[0].Job != "job-000002" {
		t.Fatalf("Pending = %+v, want job-000002/%s", rec.Pending, digB)
	}
	if !bytes.Equal(rec.Pending[0].Spec, spec("stream")) {
		t.Fatalf("pending spec = %s", rec.Pending[0].Spec)
	}
	if len(rec.Failed) != 1 || rec.Failed[0] != digC {
		t.Fatalf("Failed = %+v, want [%s]", rec.Failed, digC)
	}
	got, err := re.ReadResult(digA)
	if err != nil || !bytes.Equal(got, body) {
		t.Fatalf("ReadResult = %q, %v; want stored body", got, err)
	}
}

// TestStoreReplayDigestFolding pins the digest-keyed replay semantics:
// duplicate submissions fold onto one pending entry, done is sticky
// across later submits, and a resubmit after failure goes pending again.
func TestStoreReplayDigestFolding(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	// Two submissions of the same digest, one completes: settled.
	s.LogSubmit("job-000001", digA, spec("link"))
	s.LogSubmit("job-000002", digA, spec("link"))
	s.LogResult("job-000001", digA, "done", "", []byte("r\n"), nil)
	s.LogSubmit("job-000003", digA, spec("link")) // after done: still done
	// Failed then resubmitted: pending again.
	s.LogSubmit("job-000004", digB, spec("stream"))
	s.LogResult("job-000004", digB, "failed", "x", nil, nil)
	s.LogSubmit("job-000005", digB, spec("stream"))
	// Duplicate pendings fold to one.
	s.LogSubmit("job-000006", digC, spec("wlan"))
	s.LogSubmit("job-000007", digC, spec("wlan"))
	s.Close()

	rec := open(t, dir).Recovery()
	if len(rec.Completed) != 1 || rec.Completed[0].Digest != digA {
		t.Fatalf("Completed = %+v", rec.Completed)
	}
	if len(rec.Pending) != 2 {
		t.Fatalf("Pending = %+v, want exactly digB and digC once each", rec.Pending)
	}
	if rec.Pending[0].Digest != digB || rec.Pending[1].Digest != digC {
		t.Fatalf("Pending order = %s, %s; want first-submission order digB, digC",
			rec.Pending[0].Digest, rec.Pending[1].Digest)
	}
	if len(rec.Failed) != 0 {
		t.Fatalf("Failed = %+v; the resubmit should have reopened digB", rec.Failed)
	}
}

// TestStoreTruncatedWALTail is the torn-write fixture: a crash mid-append
// leaves a partial final line, which replay must discard (truncating the
// file) while keeping every complete record.
func TestStoreTruncatedWALTail(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	s.LogSubmit("job-000001", digA, spec("link"))
	s.LogResult("job-000001", digA, "done", "", []byte("r\n"), nil)
	s.LogSubmit("job-000002", digB, spec("stream"))
	s.Close()

	wal := filepath.Join(dir, walName)
	data, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	cut := int64(len(data) - 17) // mid-way through the final record
	if err := os.Truncate(wal, cut); err != nil {
		t.Fatal(err)
	}

	re := open(t, dir)
	rec := re.Recovery()
	if rec.TruncatedBytes == 0 {
		t.Fatal("torn tail not reported")
	}
	if rec.Records != 2 {
		t.Fatalf("Records = %d, want the 2 intact ones", rec.Records)
	}
	if len(rec.Completed) != 1 || len(rec.Pending) != 0 {
		t.Fatalf("recovery after torn tail = %+v", rec)
	}
	// The log must be append-clean: a new record lands on its own line.
	if err := re.LogSubmit("job-000001", digC, spec("wlan")); err != nil {
		t.Fatal(err)
	}
	re.Close()
	data, err = os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("WAL after truncate+append has %d lines, want 3:\n%s", len(lines), data)
	}
	for _, ln := range lines {
		var r record
		if err := json.Unmarshal([]byte(ln), &r); err != nil {
			t.Fatalf("non-JSON WAL line %q: %v", ln, err)
		}
	}
}

// TestStoreOutOfOrderResultBeforeSubmit covers the append race between
// the admission and completion goroutines: a job's result record can land
// before its own submit record, which must not read as a resubmit.
func TestStoreOutOfOrderResultBeforeSubmit(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	s.LogResult("job-000001", digA, "failed", "x", nil, nil)
	s.LogSubmit("job-000001", digA, spec("link")) // same job, out of order
	s.LogResult("job-000002", digB, "done", "", []byte("r\n"), nil)
	s.LogSubmit("job-000002", digB, spec("stream"))
	s.Close()

	rec := open(t, dir).Recovery()
	if len(rec.Failed) != 1 || rec.Failed[0] != digA {
		t.Fatalf("Failed = %+v; out-of-order submit must not reopen its own failure", rec.Failed)
	}
	if len(rec.Completed) != 1 || rec.Completed[0].Digest != digB {
		t.Fatalf("Completed = %+v", rec.Completed)
	}
	if len(rec.Pending) != 0 {
		t.Fatalf("Pending = %+v, want none", rec.Pending)
	}
}

// TestStoreGarbageMidLog stops trusting the log at the first corrupt
// record rather than resynchronizing past it.
func TestStoreGarbageMidLog(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	s.LogSubmit("job-000001", digA, spec("link"))
	s.Close()
	wal := filepath.Join(dir, walName)
	f, err := os.OpenFile(wal, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("{\"wal\":1,\"op\":garbage}\n")
	f.WriteString(`{"wal":1,"op":"submit","job":"job-000002","digest":"` + digB + `","spec":{"spec_schema":1,"spec":{"kind":"link"}},"t_ms":1}` + "\n")
	f.Close()

	rec := open(t, dir).Recovery()
	if rec.Records != 1 || len(rec.Pending) != 1 || rec.Pending[0].Digest != digA {
		t.Fatalf("replay past garbage = %+v, want only the first record", rec)
	}
	if rec.TruncatedBytes == 0 {
		t.Fatal("corrupt suffix not truncated")
	}
}

// TestStoreMissingResultFileDemotesToPending covers external deletion of
// a body file: the "done" record can no longer be honored, so the digest
// re-runs.
func TestStoreMissingResultFileDemotesToPending(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	s.LogSubmit("job-000001", digA, spec("link"))
	s.LogResult("job-000001", digA, "done", "", []byte("r\n"), nil)
	s.Close()
	if err := os.Remove(filepath.Join(dir, resultsDir, digA)); err != nil {
		t.Fatal(err)
	}
	rec := open(t, dir).Recovery()
	if len(rec.Completed) != 0 {
		t.Fatalf("Completed = %+v despite missing body", rec.Completed)
	}
	if len(rec.Pending) != 1 || rec.Pending[0].Digest != digA {
		t.Fatalf("Pending = %+v, want the demoted digest", rec.Pending)
	}
}

func TestStoreRejectsHostileDigests(t *testing.T) {
	s := open(t, t.TempDir())
	for _, bad := range []string{"", "../evil", "ABCDEF", "a/b"} {
		if err := s.LogResult("job-000001", bad, "done", "", []byte("x"), nil); err == nil {
			t.Errorf("LogResult accepted digest %q", bad)
		}
		if _, err := s.ReadResult(bad); err == nil {
			t.Errorf("ReadResult accepted digest %q", bad)
		}
	}
}

// TestStoreHostileTraceDigestReplaysUntraced covers a tampered WAL: a
// "done" record whose trace field carries path metacharacters must never
// become a filesystem lookup — the job replays completed but untraced,
// and ReadTrace refuses the digest outright.
func TestStoreHostileTraceDigestReplaysUntraced(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	s.LogSubmit("job-000001", digA, spec("link"))
	s.LogResult("job-000001", digA, "done", "", []byte("r\n"), nil)
	s.Close()

	wal := filepath.Join(dir, walName)
	data, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	// Splice a hostile trace address into the terminal record.
	tampered := bytes.Replace(data, []byte(`"state":"done"`),
		[]byte(`"state":"done","trace":"../../etc/passwd","trace_bytes":9,"probe_every":4`), 1)
	if bytes.Equal(tampered, data) {
		t.Fatal("tamper target not found in WAL")
	}
	if err := os.WriteFile(wal, tampered, 0o644); err != nil {
		t.Fatal(err)
	}

	re := open(t, dir)
	rec := re.Recovery()
	if len(rec.Completed) != 1 || rec.Completed[0].Digest != digA {
		t.Fatalf("Completed = %+v, want the done digest to survive", rec.Completed)
	}
	if cj := rec.Completed[0]; cj.Trace != nil {
		t.Fatalf("hostile trace digest leaked into recovery: %+v", cj)
	}
	for _, bad := range []string{"", "../evil", "ABCDEF", "a/b", "../../etc/passwd"} {
		if _, err := re.ReadTrace(bad); err == nil {
			t.Errorf("ReadTrace accepted digest %q", bad)
		}
	}
	if err := re.LogResult("job-000002", digB, "done", "", []byte("x\n"),
		&TraceArtifact{Digest: "../evil", Body: []byte("t\n")}); err == nil {
		t.Error("LogResult accepted a hostile trace artifact digest")
	}
}

// TestStoreReplaySkipsHostileSpecDigests covers a tampered WAL whose spec
// digest is not lowercase hex: "", ".." and "../results" all name a
// directory that exists, so a "done" record for them must never reach the
// body check. Each such record is skipped, and replay carries on past it.
func TestStoreReplaySkipsHostileSpecDigests(t *testing.T) {
	dir := t.TempDir()
	open(t, dir).Close()
	var wal bytes.Buffer
	for _, bad := range []string{"", "..", "../results", "ABC", "a/b"} {
		for _, r := range []record{
			{WAL: walVersion, Op: opSubmit, Job: "job-000001", Digest: bad, Spec: spec("link")},
			{WAL: walVersion, Op: opResult, Job: "job-000001", Digest: bad, State: "done"},
		} {
			line, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			wal.Write(append(line, '\n'))
		}
	}
	wal.WriteString(`{"wal":1,"op":"submit","job":"job-000002","digest":"` + digB + `","spec":{"spec_schema":1,"spec":{"kind":"link"}},"t_ms":1}` + "\n")
	if err := os.WriteFile(filepath.Join(dir, walName), wal.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	rec := open(t, dir).Recovery()
	if len(rec.Completed) != 0 {
		t.Fatalf("Completed = %+v; a hostile digest replayed as done", rec.Completed)
	}
	if len(rec.Pending) != 1 || rec.Pending[0].Digest != digB {
		t.Fatalf("Pending = %+v, want only the valid submit after the hostile records", rec.Pending)
	}
	if rec.Records != 11 || rec.TruncatedBytes != 0 {
		t.Fatalf("Records = %d, TruncatedBytes = %d; want all 11 records replayed, none truncated", rec.Records, rec.TruncatedBytes)
	}
}

func TestStoreClosedRefusesAppends(t *testing.T) {
	s := open(t, t.TempDir())
	s.Close()
	if err := s.LogSubmit("job-000001", digA, spec("link")); err == nil {
		t.Fatal("LogSubmit succeeded on a closed store")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}
