package store

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzReplay: wal.log is read back from disk on every restart, so replay
// must hold up against arbitrary bytes. Open never panics, only digests
// that pass validDigest reach Completed or Pending, and the index answers
// only from what it can serve: every digest reported done has a readable
// body, and every trace artifact it hands out names a valid digest whose
// body exists. Once Open has cut a torn or corrupt tail, reopening the log
// gives the same Recovery and the same index answers, with nothing left
// to truncate.
func FuzzReplay(f *testing.F) {
	for _, ops := range []func(s *Store){
		func(s *Store) { // TestStoreReplayRoundTrip
			s.LogSubmit("job-000001", digA, spec("link"))
			s.LogSubmit("job-000002", digB, spec("stream"))
			s.LogResult("job-000001", digA, "done", "", []byte("r\n"), nil)
			s.LogSubmit("job-000003", digC, spec("wlan"))
			s.LogResult("job-000003", digC, "failed", "boom", nil, nil)
		},
		func(s *Store) { // TestStoreReplayDigestFolding
			s.LogSubmit("job-000001", digA, spec("link"))
			s.LogSubmit("job-000002", digA, spec("link"))
			s.LogResult("job-000001", digA, "done", "", []byte("r\n"), nil)
			s.LogSubmit("job-000003", digA, spec("link"))
			s.LogSubmit("job-000004", digB, spec("stream"))
			s.LogResult("job-000004", digB, "failed", "x", nil, nil)
			s.LogSubmit("job-000005", digB, spec("stream"))
			s.LogSubmit("job-000006", digC, spec("wlan"))
			s.LogSubmit("job-000007", digC, spec("wlan"))
		},
		func(s *Store) { // TestStoreOutOfOrderResultBeforeSubmit
			s.LogResult("job-000001", digA, "failed", "x", nil, nil)
			s.LogSubmit("job-000001", digA, spec("link"))
			s.LogResult("job-000002", digB, "done", "", []byte("r\n"), nil)
			s.LogSubmit("job-000002", digB, spec("stream"))
		},
		func(s *Store) { // a traced job, as the serve trace tests log it
			s.LogSubmit("job-000001", digA, spec("link"))
			s.LogResult("job-000001", digA, "done", "", []byte("r\n"),
				&TraceArtifact{Digest: digC, ProbeEvery: 4, Body: []byte("t\n")})
		},
	} {
		dir := f.TempDir()
		s, err := Open(dir)
		if err != nil {
			f.Fatal(err)
		}
		ops(s)
		s.Close()
		wal, err := os.ReadFile(filepath.Join(dir, walName))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(wal)
		f.Add(wal[:len(wal)-17]) // TestStoreTruncatedWALTail
		f.Add(bytes.Replace(wal, []byte(`"digest":"`+digA+`"`), []byte(`"digest":"../results"`), -1))
		f.Add(bytes.Replace(wal, []byte(`"state":"done"`),
			[]byte(`"state":"done","trace":"../../etc/passwd","trace_bytes":9,"probe_every":4`), 1))
	}
	f.Add([]byte("{\"wal\":1,\"op\":\"submit\",\"job\":\"job-000001\",\"digest\":\"\",\"spec\":{},\"t_ms\":1}\n{\"wal\":1,\"op\":garbage}\n"))
	f.Add([]byte("{\"wal\":2,\"op\":\"submit\"}\n"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, wal []byte) {
		dir := t.TempDir()
		// Bodies for digA's result and digC's trace, so "done" records can
		// replay as completed and traced.
		for sub, d := range map[string]string{resultsDir: digA, tracesDir: digC} {
			if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, sub, d), []byte("x\n"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, walName), wal, 0o644); err != nil {
			t.Fatal(err)
		}
		// index is what one open store answers for the given digests:
		// whether each is done, and its trace artifact.
		type answer struct {
			done  bool
			trace TraceArtifact
		}
		index := func(s *Store, digests []string) map[string]answer {
			got := map[string]answer{}
			for _, d := range digests {
				_, err := s.ReadResult(d)
				a := answer{done: err == nil}
				if tr := s.Trace(d); tr != nil {
					if !a.done {
						t.Fatalf("trace %+v handed out for %s, which is not done", tr, d)
					}
					if !validDigest(tr.Digest) {
						t.Fatalf("trace digest %q is not lowercase hex", tr.Digest)
					}
					if _, err := s.ReadTrace(tr.Digest); err != nil {
						t.Fatalf("trace %s of %s has no readable body: %v", tr.Digest, d, err)
					}
					a.trace = *tr
				}
				got[d] = a
			}
			return got
		}

		s, err := Open(dir)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		first := s.Recovery()
		probe := append([]string{digA, digB, digC}, first.Failed...)
		for _, d := range first.Completed {
			if !validDigest(d) {
				t.Fatalf("completed digest %q is not lowercase hex", d)
			}
			if _, err := s.ReadResult(d); err != nil {
				t.Fatalf("completed digest %s has no readable body: %v", d, err)
			}
			probe = append(probe, d)
		}
		for _, p := range first.Pending {
			if !validDigest(p.Digest) {
				t.Fatalf("pending digest %q is not lowercase hex", p.Digest)
			}
			probe = append(probe, p.Digest)
		}
		firstIndex := index(s, probe)
		s.Close()

		s, err = Open(dir)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		second := s.Recovery()
		secondIndex := index(s, probe)
		s.Close()
		if second.TruncatedBytes != 0 {
			t.Fatalf("reopen truncated %d more bytes", second.TruncatedBytes)
		}
		first.TruncatedBytes = 0
		if !reflect.DeepEqual(first, second) {
			t.Fatalf("recovery changed across a reopen:\nfirst:  %+v\nsecond: %+v", first, second)
		}
		if !reflect.DeepEqual(firstIndex, secondIndex) {
			t.Fatalf("index changed across a reopen:\nfirst:  %+v\nsecond: %+v", firstIndex, secondIndex)
		}
	})
}
