package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"testing"
	"time"
)

// TestResultBodyDigests pins the SHA-256 of one NDJSON result body per
// simulating job kind. Any change to a job loop, its RNG draws or its
// record encoding moves these bytes; a change that means to move them
// re-pins here on purpose.
func TestResultBodyDigests(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"link", Spec{Kind: KindLink, Seed: 3, SNRdB: 14, Packets: 40, ControlBits: 32},
			"f052b220c19ff4309bf9d4c1647f5a5d9b0327a786d2d1ad0d54834a8c7abd27"},
		{"stream", Spec{Kind: KindStream, Seed: 3, SNRdB: 18, Sends: 4},
			"ba47792f0c7d947e8cf0b006ace05a9f811f78333868bd223b356d60dc96383c"},
		{"wlan", Spec{Kind: KindWLAN, Seed: 3, Rounds: 20},
			"94fd80831cbf4c523455b15b4898781db22de7de329bf2596e2beea8bf76efa2"},
	}
	s := newTestServer(t, Config{Shards: 1})
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			j, err := s.Submit(c.spec)
			if err != nil {
				t.Fatal(err)
			}
			if st := waitTerminal(t, j, time.Minute); j.State() != StateDone {
				t.Fatalf("job %s: %v (%s)", j.ID(), st.State, st.Error)
			}
			body, err := io.ReadAll(j.Result())
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(body)
			if got := hex.EncodeToString(sum[:]); got != c.want {
				t.Errorf("result body SHA-256 = %s, want %s", got, c.want)
			}
		})
	}
}
