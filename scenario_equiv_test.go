package cos_test

// Scenario-layer goldens at the public Link API.
//
// TestScenarioLinkGoldens pins fixed-seed transcript hashes for the two
// non-default worlds this repo ships (the hybrid BSC/PEC outdoor channel
// and the OFDM-padding embedding) the same way TestPipelineGolden pins the
// default world.

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"strings"
	"testing"

	"cos"
)

// transcript drives a fresh link built from opts through the standard
// golden send schedule and returns the full transcript text.
func transcript(t *testing.T, packets, ctrlBits, k int, sendSeed int64, opts ...cos.Option) string {
	t.Helper()
	link, err := cos.NewLink(opts...)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	driveSends(t, &b, link, packets, ctrlBits, k, rand.New(rand.NewSource(sendSeed)))
	return b.String()
}

// TestScenarioLinkGoldens pins fixed-seed transcript hashes for the two
// new scenario components end-to-end through the public Link API. A drift
// means the component's deterministic behaviour changed — bump these only
// deliberately, like the TestPipelineGolden goldens.
func TestScenarioLinkGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("full PHY simulation; skipped in -short mode")
	}
	cases := []struct {
		name string
		want string
		opts []cos.Option
	}{
		{
			name: "hybrid-bscpec",
			want: "7e59bb588e3fed7983d9cb34bddcef3379bf075eff0e5a30ac0481276711ada6",
			opts: []cos.Option{cos.WithScenario("hybrid-bscpec"), cos.WithSeed(23), cos.WithSNR(20)},
		},
		{
			name: "hybrid-bscpec-params",
			want: "3f85eacee4084a1f1cd51d32e3ee6e1ae2d015b84c82c9ffcd5a1f49264308c0",
			opts: []cos.Option{cos.WithScenario("hybrid-bscpec:0.3,0.1,10"), cos.WithSeed(23), cos.WithSNR(20)},
		},
		{
			name: "ofdm-padding",
			want: "3d403d7ffdc481cd56710f8fdf9f5c109bddedf4c39ae0701727920898b77241",
			opts: []cos.Option{cos.WithScenario("ofdm-padding"), cos.WithSeed(29), cos.WithSNR(20)},
		},
		{
			name: "ofdm-padding-framed",
			want: "5f544cc9ccb2aaf8e62bbfd61cab0627112f9228497bfd8a68a1d0b3c49e704c",
			opts: []cos.Option{cos.WithScenario("ofdm-padding"), cos.WithControlFraming(), cos.WithSeed(31), cos.WithSNR(18)},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := 4
			if strings.Contains(tc.name, "framed") {
				k = 1
			}
			first := transcript(t, 25, 16, k, 200, tc.opts...)
			second := transcript(t, 25, 16, k, 200, tc.opts...)
			if first != second {
				t.Fatal("transcript is not deterministic across fresh links")
			}
			sum := sha256.Sum256([]byte(first))
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Errorf("transcript hash = %s, want %s", got, tc.want)
			}
		})
	}
}

// TestScenarioOptionErrors pins WithScenario's failure mode: unknown names
// and misrouted parameters surface as ConfigError at NewLink, never later.
func TestScenarioOptionErrors(t *testing.T) {
	if _, err := cos.NewLink(cos.WithScenario("no-such-world")); err == nil {
		t.Error("NewLink accepted an unknown scenario")
	}
	if _, err := cos.NewLink(cos.WithScenario("default:1,2")); err == nil {
		t.Error("NewLink accepted parameters for the parameterless default scenario")
	}
}
