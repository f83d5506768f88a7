package scenario_test

import (
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"cos/internal/channel"
	"cos/internal/scenario"
	_ "cos/internal/scenario/all"
)

// TestResolveAndListing pins the registry surface: the built-in presets
// resolve, listings are sorted and deterministic, and unknown names wrap
// ErrUnknown.
func TestResolveAndListing(t *testing.T) {
	names := scenario.Names()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("Names() not sorted: %v", names)
	}
	for _, want := range []string{"default", "hybrid-bscpec", "mobile", "ofdm-padding", "pulse"} {
		if _, err := scenario.Resolve(want); err != nil {
			t.Errorf("Resolve(%q): %v", want, err)
		}
	}
	if _, err := scenario.Resolve("no-such-world"); !errors.Is(err, scenario.ErrUnknown) {
		t.Errorf("Resolve(unknown) = %v, want ErrUnknown", err)
	}
	if s, err := scenario.Resolve(""); err != nil || s.Name != scenario.DefaultName {
		t.Errorf("Resolve(\"\") = %+v, %v; want the default preset", s, err)
	}
	list := scenario.List()
	if len(list) != len(names) {
		t.Fatalf("List() has %d entries, Names() %d", len(list), len(names))
	}
	for i, s := range list {
		if s.Name != names[i] {
			t.Errorf("List()[%d] = %q, want %q", i, s.Name, names[i])
		}
	}
}

// TestFormatListDeterministic pins the -list-scenarios text: stable across
// calls, sorted, one reference per preset with defaults spelled out.
func TestFormatListDeterministic(t *testing.T) {
	a, b := scenario.FormatList(), scenario.FormatList()
	if a != b {
		t.Fatal("FormatList() is not deterministic")
	}
	for _, want := range []string{
		"default", "channel=indoor-tdl", "embedding=cos-silence",
		"pulse:40,160,0.004", "hybrid-bscpec:0.1,0.05,25",
		"embedding=ofdm-padding", "mobile",
	} {
		if !strings.Contains(a, want) {
			t.Errorf("FormatList() missing %q:\n%s", want, a)
		}
	}
	lines := strings.Split(strings.TrimRight(a, "\n"), "\n")
	var heads []string
	for _, ln := range lines {
		if !strings.HasPrefix(ln, "    ") {
			heads = append(heads, strings.Fields(ln)[0])
		}
	}
	if !sort.StringsAreSorted(heads) {
		t.Errorf("FormatList() presets not sorted: %v", heads)
	}
}

// TestParamRouting pins Resolve's parameter routing: params land on the
// component the preset declares, and parameterless presets reject them.
func TestParamRouting(t *testing.T) {
	s, err := scenario.Resolve("pulse", 50, 100, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if want := []float64{50, 100, 0.01}; !reflect.DeepEqual(s.InterfererParams, want) {
		t.Fatalf("InterfererParams = %v, want %v", s.InterfererParams, want)
	}
	if _, err := scenario.Resolve("default", 1); err == nil {
		t.Error("Resolve(default, params...) must fail: the preset takes no parameters")
	}
	if _, err := scenario.Resolve("mobile", 1); err == nil {
		t.Error("Resolve(mobile, params...) must fail: the preset takes no parameters")
	}
	h, err := scenario.Resolve("hybrid-bscpec", 0.2, 0.1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if want := []float64{0.2, 0.1, 10}; !reflect.DeepEqual(h.ChannelParams, want) {
		t.Fatalf("ChannelParams = %v, want %v", h.ChannelParams, want)
	}
}

// TestRefRoundTrip pins Ref's textual form and CanonicalRef's collapsing
// rules (the spec-digest invariants ride on these).
func TestRefRoundTrip(t *testing.T) {
	for _, tc := range []struct{ in, out string }{
		{"pulse", "pulse"},
		{"pulse:40,160,0.004", "pulse:40,160,0.004"},
		{"hybrid-bscpec:0.25,0.05,12.5", "hybrid-bscpec:0.25,0.05,12.5"},
	} {
		ref, err := scenario.ParseRef(tc.in)
		if err != nil {
			t.Errorf("ParseRef(%q): %v", tc.in, err)
			continue
		}
		if got := ref.String(); got != tc.out {
			t.Errorf("ParseRef(%q).String() = %q, want %q", tc.in, got, tc.out)
		}
	}
	for _, bad := range []string{"", ":1", "UPPER", "pulse:", "pulse:x", "pulse:1e999", "a b"} {
		if _, err := scenario.ParseRef(bad); err == nil {
			t.Errorf("ParseRef(%q) accepted", bad)
		}
	}

	for _, tc := range []struct{ in, want string }{
		{"", ""},
		{"default", ""},
		{"pulse", "pulse:40,160,0.004"},
		{"pulse:40,160,0.004", "pulse:40,160,0.004"},
		{"pulse:80,160,0.004", "pulse:80,160,0.004"},
		{"hybrid-bscpec", "hybrid-bscpec:0.1,0.05,25"},
		{"ofdm-padding", "ofdm-padding"},
		{"mobile", "mobile"},
	} {
		got, err := scenario.CanonicalRef(tc.in)
		if err != nil {
			t.Errorf("CanonicalRef(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("CanonicalRef(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
	if _, err := scenario.CanonicalRef("no-such-world"); err == nil {
		t.Error("CanonicalRef(unknown) accepted")
	}
}

// TestComposition pins the constructor semantics the pipeline relies on:
// mobility ORs into the geometry, Interfered(nil) is the identity, and a
// composed interferer reports the inner model's frequency response.
func TestComposition(t *testing.T) {
	mobile, err := scenario.Resolve("mobile")
	if err != nil {
		t.Fatal(err)
	}
	ch, err := mobile.NewChannel(scenario.Geometry{Position: channel.PositionA})
	if err != nil {
		t.Fatal(err)
	}
	if ch.FrequencyResponse(0) == ch.FrequencyResponse(0.050) {
		t.Error("mobile preset produced a time-invariant channel")
	}

	if none, err := (scenario.Scenario{}).NewInterferer(); err != nil || none != nil {
		t.Fatalf("zero scenario NewInterferer = %v, %v; want nil, nil", none, err)
	}
	if got := scenario.Interfered(ch, nil); got != ch {
		t.Error("Interfered(model, nil) must return the model unchanged")
	}

	pulse, err := scenario.Resolve("pulse")
	if err != nil {
		t.Fatal(err)
	}
	intf, err := pulse.NewInterferer()
	if err != nil {
		t.Fatal(err)
	}
	composed := scenario.Interfered(ch, intf)
	if composed == ch {
		t.Fatal("Interfered(model, intf) must wrap the model")
	}
	for _, now := range []float64{0, 0.050} {
		if composed.FrequencyResponse(now) != ch.FrequencyResponse(now) {
			t.Errorf("composed FrequencyResponse(%v) differs from the inner model's", now)
		}
	}
	samples := make([]complex128, 512)
	if _, _, err := composed.Propagate(nil, samples, 0, 18, rand.New(rand.NewSource(1))); err != nil {
		t.Fatalf("composed Propagate: %v", err)
	}
}

// TestRegisterDuplicatePanics pins registration as an init-time act: a
// second registration under a taken name is a programming error.
func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	scenario.Register(scenario.Scenario{Name: "default"})
}
