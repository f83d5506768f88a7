package cos

import (
	"errors"
	"strings"
	"testing"
)

// Every typed error must be reachable through errors.Is/As from the public
// entry points (NewLink, Send, SendStream), wrapped with a contextual
// message.

func TestConfigErrorFromOptions(t *testing.T) {
	cases := []struct {
		name   string
		opt    Option
		option string
	}{
		{"snr", WithSNR(99), "WithSNR"},
		{"silence-budget", WithSilenceBudget(-1), "WithSilenceBudget"},
		{"packet-interval", WithPacketInterval(0), "WithPacketInterval"},
		{"observer", WithObserver(nil), "WithObserver"},
		{"metrics-registry", WithMetricsRegistry(nil), "WithMetricsRegistry"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewLink(tc.opt)
			if err == nil {
				t.Fatal("want error")
			}
			var ce *ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("error %v is not a *ConfigError", err)
			}
			if ce.Option != tc.option {
				t.Errorf("Option = %q, want %q", ce.Option, tc.option)
			}
			if ce.Reason == "" {
				t.Error("empty Reason")
			}
			// Historical message shape: "cos: <reason>".
			if !strings.HasPrefix(err.Error(), "cos: ") {
				t.Errorf("message %q lost the cos: prefix", err.Error())
			}
		})
	}
}

func TestErrCoSDisabled(t *testing.T) {
	link, err := NewLink(WithoutCoS(), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	_, err = link.Send(make([]byte, 256), []byte{1, 0, 1, 0})
	if !errors.Is(err, ErrCoSDisabled) {
		t.Errorf("err = %v, want ErrCoSDisabled", err)
	}
}

func TestErrBudgetExceeded(t *testing.T) {
	link, err := NewLink(WithSNR(20), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 4096)
	_, err = link.Send(make([]byte, 256), big)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Errorf("err = %v, want ErrBudgetExceeded", err)
	}
}

func TestErrControlAlignment(t *testing.T) {
	link, err := NewLink(WithSNR(20), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	_, err = link.Send(make([]byte, 256), []byte{1, 0, 1}) // 3 bits, k=4
	if !errors.Is(err, ErrControlAlignment) {
		t.Errorf("err = %v, want ErrControlAlignment", err)
	}
}

func TestErrFramingRequired(t *testing.T) {
	link, err := NewLink(WithSNR(20), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	_, err = link.SendStream(make([]byte, 40), make([]byte, 256))
	if !errors.Is(err, ErrFramingRequired) {
		t.Errorf("err = %v, want ErrFramingRequired", err)
	}
}

func TestStreamOutcomeString(t *testing.T) {
	cases := map[StreamOutcome]string{
		StreamDelivered:       "delivered",
		StreamStallAborted:    "stall-aborted",
		StreamFragmentLost:    "fragment-lost",
		StreamHeaderCorrupted: "header-corrupted",
		StreamOutcome(0):      "StreamOutcome(0)",
		StreamOutcome(42):     "StreamOutcome(42)",
		StreamOutcome(-1):     "StreamOutcome(-1)",
	}
	for o, want := range cases {
		if got := o.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(o), got, want)
		}
	}
}
