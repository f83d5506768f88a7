package cos

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
)

func randBits(rng *rand.Rand, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(rng.Intn(2))
	}
	return out
}

func TestLinkDataOnly(t *testing.T) {
	link, err := NewLink(WithSNR(20), WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 512)
	rand.New(rand.NewSource(12)).Read(data)
	ex, err := link.Send(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !ex.DataOK {
		t.Fatal("data-only packet failed at 20 dB")
	}
	if !bytes.Equal(ex.Data, data) {
		t.Error("payload corrupted")
	}
	if ex.SilencesInserted != 0 || len(ex.ControlSent) != 0 {
		t.Error("data-only packet should carry no silences")
	}
}

// 802.11a's LENGTH field is 12 bits, so a PSDU (payload plus 4-byte FCS)
// tops out at 4,095 octets.
func TestLinkSendPSDULimit(t *testing.T) {
	link, err := NewLink(WithSNR(20), WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := link.Send(make([]byte, 4091), nil); err != nil {
		t.Fatalf("4,091-byte payload (4,095-octet PSDU): %v", err)
	}
	_, err = link.Send(make([]byte, 4092), nil)
	if err == nil || !strings.Contains(err.Error(), "4095") {
		t.Fatalf("4,092-byte payload: err = %v, want one naming the 4095-octet limit", err)
	}
}

func TestLinkControlDelivery(t *testing.T) {
	// 18 dB actual lands the link in the 24 Mb/s (16QAM,1/2) band, where
	// the spare code redundancy sustains a healthy control budget.
	link, err := NewLink(WithSNR(18), WithSeed(13))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(14))
	data := make([]byte, 1024)
	rng.Read(data)

	// Bootstrap packet (no feedback yet): conservative settings.
	ex, err := link.Send(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !ex.DataOK {
		t.Fatal("bootstrap packet failed")
	}
	if ex.Mode.RateMbps != 6 {
		t.Errorf("bootstrap mode = %v, want 6 Mb/s", ex.Mode)
	}

	// Subsequent packets ride the adapted rate and carry control bits.
	// The budget legitimately shrinks when the smoothed SNR report visits
	// a 3/4-coded band, so follow it rather than demand a floor.
	delivered, dataOK, attempts, sent, adapted := 0, 0, 0, 0, 0
	for i := 0; i < 20; i++ {
		maxBits, err := link.MaxControlBits(len(data))
		if err != nil {
			t.Fatal(err)
		}
		ctrl := randBits(rng, min(maxBits/4*4, 32))
		ex, err := link.Send(data, ctrl)
		if err != nil {
			t.Fatal(err)
		}
		attempts++
		if len(ex.ControlSent) > 0 {
			sent++
			if ex.ControlOK {
				delivered++
			}
		}
		if ex.DataOK {
			dataOK++
		}
		if ex.Mode.RateMbps > 6 {
			adapted++
		}
	}
	if sent < attempts*6/10 {
		t.Errorf("control embedded on only %d/%d packets at 18 dB", sent, attempts)
	}
	if delivered < sent*8/10 {
		t.Errorf("control delivered %d/%d at 18 dB; want >= 80%%", delivered, sent)
	}
	if dataOK < attempts*9/10 {
		t.Errorf("data PRR %d/%d at 18 dB; want >= 90%%", dataOK, attempts)
	}
	if adapted < attempts/2 {
		t.Errorf("rate adapted above 6 Mb/s on only %d/%d packets", adapted, attempts)
	}
}

func TestLinkAdaptsRateToSNR(t *testing.T) {
	for _, c := range []struct {
		snr     float64
		minRate int
		maxRate int
	}{
		{8, 6, 18}, {14, 12, 36}, {25, 36, 54},
	} {
		link, err := NewLink(WithSNR(c.snr), WithSeed(15), WithPosition(PositionC))
		if err != nil {
			t.Fatal(err)
		}
		data := make([]byte, 256)
		var last *Exchange
		for i := 0; i < 4; i++ {
			last, err = link.Send(data, nil)
			if err != nil {
				t.Fatal(err)
			}
		}
		if last.Mode.RateMbps < c.minRate || last.Mode.RateMbps > c.maxRate {
			t.Errorf("SNR %v: adapted to %v, want within [%d,%d] Mb/s",
				c.snr, last.Mode, c.minRate, c.maxRate)
		}
	}
}

func TestLinkSelectsWeakSubcarriers(t *testing.T) {
	// QPSK keeps the detectability floor low so weak subcarriers remain
	// usable for control; with higher-order QAM at this SNR the selection
	// correctly retreats to stronger subcarriers.
	link, err := NewLink(WithSNR(20), WithSeed(16), WithPosition(PositionA), WithFixedRate(12))
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 512)
	if _, err := link.Send(data, nil); err != nil {
		t.Fatal(err)
	}
	evm := link.LastEVM()
	if evm == nil {
		t.Fatal("no EVM feedback after a successful packet")
	}
	sel := link.ControlSubcarriers()
	if len(sel) == 0 {
		t.Fatal("no control subcarriers selected")
	}
	// Selected subcarriers should have above-median EVM (they are chosen
	// weakest-first among detectable ones).
	var all []float64
	all = append(all, evm...)
	median := medianOf(all)
	weak := 0
	for _, sc := range sel {
		if evm[sc] >= median {
			weak++
		}
	}
	if weak*2 < len(sel) {
		t.Errorf("only %d/%d selected subcarriers are above-median EVM", weak, len(sel))
	}
}

func medianOf(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	for i := range s {
		for j := i + 1; j < len(s); j++ {
			if s[j] < s[i] {
				s[i], s[j] = s[j], s[i]
			}
		}
	}
	return s[len(s)/2]
}

func TestLinkLossResetsToConservative(t *testing.T) {
	link, err := NewLink(WithSNR(30), WithSeed(17))
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 128)
	if _, err := link.Send(data, nil); err != nil {
		t.Fatal(err)
	}
	// Simulate loss by forcing internal state as a failed packet would.
	link.tx.NoteLoss()
	ex, err := link.Send(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Mode.RateMbps != 6 {
		t.Errorf("post-loss mode = %v, want 6 Mb/s fallback", ex.Mode)
	}
}

func TestLinkDisabledCoSRejectsControl(t *testing.T) {
	link, err := NewLink(WithoutCoS())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := link.Send(make([]byte, 64), []byte{1, 0, 1, 0}); err == nil {
		t.Error("control on disabled link should error")
	}
	n, err := link.MaxControlBits(64)
	if err != nil || n != 0 {
		t.Errorf("MaxControlBits = %d, %v; want 0", n, err)
	}
}

func TestLinkBudgetEnforced(t *testing.T) {
	link, err := NewLink(WithSNR(20), WithSeed(18), WithSilenceBudget(3))
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 256)
	if _, err := link.Send(data, nil); err != nil {
		t.Fatal(err)
	}
	maxBits, err := link.MaxControlBits(len(data))
	if err != nil {
		t.Fatal(err)
	}
	if maxBits != 8 { // (3-1)*4
		t.Errorf("MaxControlBits = %d, want 8", maxBits)
	}
	if _, err := link.Send(data, randBits(rand.New(rand.NewSource(19)), 12)); err == nil {
		t.Error("over-budget control should error")
	}
}

func TestLinkDeterministic(t *testing.T) {
	run := func() []float64 {
		link, err := NewLink(WithSNR(15), WithSeed(42), WithMobile())
		if err != nil {
			t.Fatal(err)
		}
		var out []float64
		data := make([]byte, 300)
		for i := 0; i < 5; i++ {
			ex, err := link.Send(data, nil)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, ex.MeasuredSNRdB)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at packet %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestLinkMobileChannelVaries(t *testing.T) {
	link, err := NewLink(WithSNR(18), WithSeed(43), WithMobile(), WithPacketInterval(20e-3))
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 300)
	var snrs []float64
	for i := 0; i < 10; i++ {
		ex, err := link.Send(data, nil)
		if err != nil {
			t.Fatal(err)
		}
		snrs = append(snrs, ex.MeasuredSNRdB)
	}
	varies := false
	for i := 1; i < len(snrs); i++ {
		if snrs[i] != snrs[0] {
			varies = true
		}
	}
	if !varies {
		t.Error("mobile link measured SNR never changed across 200 ms")
	}
	if link.Now() < 0.19 {
		t.Errorf("clock advanced to %v, want ~0.2 s", link.Now())
	}
}

func TestLinkDataSurvivesCoS(t *testing.T) {
	// The headline guarantee: inserting control messages does not destroy
	// data packets.
	link, err := NewLink(WithSNR(17), WithSeed(44), WithPosition(PositionB))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(45))
	data := make([]byte, 1024)
	rng.Read(data)
	if _, err := link.Send(data, nil); err != nil {
		t.Fatal(err)
	}
	okData := 0
	const n = 15
	for i := 0; i < n; i++ {
		maxBits, err := link.MaxControlBits(len(data))
		if err != nil {
			t.Fatal(err)
		}
		ctrl := randBits(rng, min(maxBits/4*4, 40))
		ex, err := link.Send(data, ctrl)
		if err != nil {
			t.Fatal(err)
		}
		if ex.DataOK {
			okData++
		}
	}
	if okData < n-1 {
		t.Errorf("data PRR %d/%d with CoS active; CoS is destroying packets", okData, n)
	}
}

func TestOptionValidation(t *testing.T) {
	bad := [][]Option{
		{WithSNR(99)},
		{WithFixedRate(33)},
		{WithSilenceBudget(-1)},
		{WithScenario("pulse", -1, 10, 0.1)},
		{WithPacketInterval(0)},
		{WithPosition(Position(99))},
	}
	for i, opts := range bad {
		if _, err := NewLink(opts...); err == nil {
			t.Errorf("option set %d should be rejected", i)
		}
	}
}

func TestLinkExplicitFeedback(t *testing.T) {
	// The closed loop must still function when feedback rides a real
	// reverse-channel frame instead of being delivered ideally.
	link, err := NewLink(WithSNR(18), WithSeed(51), WithExplicitFeedback())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(52))
	data := make([]byte, 1024)
	rng.Read(data)
	if _, err := link.Send(data, nil); err != nil {
		t.Fatal(err)
	}
	sent, delivered, dataOK := 0, 0, 0
	const n = 15
	for i := 0; i < n; i++ {
		maxBits, err := link.MaxControlBits(len(data))
		if err != nil {
			t.Fatal(err)
		}
		ctrl := randBits(rng, min(maxBits/4*4, 24))
		ex, err := link.Send(data, ctrl)
		if err != nil {
			t.Fatal(err)
		}
		if len(ex.ControlSent) > 0 {
			sent++
			if ex.ControlOK {
				delivered++
			}
		}
		if ex.DataOK {
			dataOK++
		}
	}
	if dataOK < n-1 {
		t.Errorf("data PRR %d/%d with explicit feedback", dataOK, n)
	}
	if sent < n/2 {
		t.Errorf("control embedded on only %d/%d packets", sent, n)
	}
	if delivered < sent*7/10 {
		t.Errorf("control delivered %d/%d with explicit feedback", delivered, sent)
	}
}

func TestLinkExplicitFeedbackDeterministic(t *testing.T) {
	run := func() int {
		link, err := NewLink(WithSNR(16), WithSeed(53), WithExplicitFeedback())
		if err != nil {
			t.Fatal(err)
		}
		data := make([]byte, 512)
		ok := 0
		for i := 0; i < 6; i++ {
			ex, err := link.Send(data, nil)
			if err != nil {
				t.Fatal(err)
			}
			if ex.DataOK {
				ok++
			}
		}
		return ok
	}
	if a, b := run(), run(); a != b {
		t.Errorf("explicit-feedback runs diverged: %d vs %d", a, b)
	}
}

func TestLinkControlFraming(t *testing.T) {
	// Pin 24 Mb/s so the budget never visits a 3/4 band mid-test.
	link, err := NewLink(WithSNR(18), WithSeed(61), WithControlFraming(), WithFixedRate(24))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(62))
	data := make([]byte, 1024)
	rng.Read(data)
	if _, err := link.Send(data, nil); err != nil {
		t.Fatal(err)
	}
	verified, sent := 0, 0
	for i := 0; i < 12; i++ {
		maxBits, err := link.MaxControlBits(len(data))
		if err != nil {
			t.Fatal(err)
		}
		// Framed control needs no k-alignment: odd lengths are fine.
		n := min(maxBits, 19)
		if n <= 0 {
			continue
		}
		ctrl := randBits(rng, n)
		ex, err := link.Send(data, ctrl)
		if err != nil {
			t.Fatal(err)
		}
		if len(ex.ControlSent) == 0 {
			continue
		}
		sent++
		if ex.ControlVerified {
			verified++
			if !bytes.Equal(ex.ControlPayload, ctrl) {
				t.Fatalf("verified payload differs: %v vs %v", ex.ControlPayload, ctrl)
			}
			if !ex.ControlOK {
				t.Error("verified payload should imply ControlOK")
			}
		}
	}
	if sent < 6 {
		t.Fatalf("control embedded on only %d packets", sent)
	}
	if verified < sent*7/10 {
		t.Errorf("framing verified %d/%d messages", verified, sent)
	}
}

func TestLinkUnframedRequiresAlignment(t *testing.T) {
	link, err := NewLink(WithSNR(20), WithSeed(63))
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 512)
	if _, err := link.Send(data, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := link.Send(data, []byte{1, 0, 1}); err == nil {
		t.Error("unframed control of non-multiple length should error")
	}
}

func TestLinkChannelVariantsDiffer(t *testing.T) {
	snrOf := func(variant int64) float64 {
		link, err := NewLink(WithSNR(18), WithSeed(81), WithChannelVariant(variant))
		if err != nil {
			t.Fatal(err)
		}
		ex, err := link.Send(make([]byte, 200), nil)
		if err != nil {
			t.Fatal(err)
		}
		return ex.MeasuredSNRdB
	}
	if snrOf(1) == snrOf(2) {
		t.Error("different channel variants produced identical measured SNR")
	}
}

func TestLinkNowStartsAtZero(t *testing.T) {
	link, err := NewLink()
	if err != nil {
		t.Fatal(err)
	}
	if link.Now() != 0 {
		t.Errorf("fresh link clock = %v", link.Now())
	}
}

func TestSendStreamDeliversLongControl(t *testing.T) {
	link, err := NewLink(WithSNR(19), WithSeed(91), WithControlFraming(), WithFixedRate(24))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(92))
	data := make([]byte, 1024)
	rng.Read(data)
	if _, err := link.Send(data, nil); err != nil {
		t.Fatal(err)
	}
	payload := randBits(rng, 180) // far beyond one packet's budget
	res, err := link.SendStream(payload, data)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != StreamDelivered {
		t.Fatalf("stream not delivered: %+v", res)
	}
	if !bytes.Equal(res.Payload, payload) {
		t.Error("reassembled payload differs")
	}
	if res.FragmentsSent < 3 {
		t.Errorf("expected a multi-fragment stream, sent %d", res.FragmentsSent)
	}
	if res.PacketsUsed < res.FragmentsSent {
		t.Errorf("accounting: %d packets < %d fragments", res.PacketsUsed, res.FragmentsSent)
	}
}

func TestSendStreamRequiresFraming(t *testing.T) {
	link, err := NewLink(WithSNR(19), WithSeed(93))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := link.SendStream([]byte{1, 0}, make([]byte, 64)); err == nil {
		t.Error("stream without framing should error")
	}
}

func TestSendStreamRejectsEmptyPayload(t *testing.T) {
	link, err := NewLink(WithControlFraming())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := link.SendStream(nil, make([]byte, 64)); err == nil {
		t.Error("empty payload should error")
	}
}

// TestExchangeOwnsControlSubcarriers pins that an Exchange's
// ControlSubcarriers is the caller's own copy: writing to it must not
// reach the transmitter's selection or the bootstrap set {9..16} that
// every fresh link starts from.
func TestExchangeOwnsControlSubcarriers(t *testing.T) {
	bootstrap := []int{9, 10, 11, 12, 13, 14, 15, 16}
	data := make([]byte, 256)
	first, err := NewLink(WithSeed(41))
	if err != nil {
		t.Fatal(err)
	}
	ex, err := first.Send(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(ex.ControlSubcarriers, bootstrap) {
		t.Fatalf("first exchange used %v, want the bootstrap set %v", ex.ControlSubcarriers, bootstrap)
	}
	// Restore what was written, so a failure here cannot leak a corrupted
	// bootstrap set into the rest of the package's tests.
	old := ex.ControlSubcarriers[0]
	ex.ControlSubcarriers[0] = 47
	defer func() { ex.ControlSubcarriers[0] = old }()

	second, err := NewLink(WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	if got := second.ControlSubcarriers(); !slices.Equal(got, bootstrap) {
		t.Errorf("fresh link selects %v after a caller wrote to an exchange, want %v", got, bootstrap)
	}
	ex2, err := second.Send(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(ex2.ControlSubcarriers, bootstrap) {
		t.Errorf("fresh link bootstrapped on %v after a caller wrote to an exchange, want %v", ex2.ControlSubcarriers, bootstrap)
	}
}

// TestObserverMayRetainExchanges retains every exchange of a probed,
// control-carrying session in an observer and checks, once the session is
// over, that each still equals the deep copy taken inside the callback:
// later packets must not write through any slice an exchange holds.
func TestObserverMayRetainExchanges(t *testing.T) {
	var retained, copies []*Exchange
	link, err := NewLink(WithSNR(20), WithSeed(43), WithProbe(3),
		WithObserver(func(ex *Exchange) {
			retained = append(retained, ex)
			copies = append(copies, deepCopyExchange(ex))
		}))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(44))
	data := make([]byte, 512)
	const packets = 20
	for i := 0; i < packets; i++ {
		rng.Read(data)
		budget, err := link.MaxControlBits(len(data))
		if err != nil {
			t.Fatal(err)
		}
		n := budget / 4 * 4
		if n > 16 {
			n = 16
		}
		if _, err := link.Send(data, randBits(rng, n)); err != nil {
			t.Fatal(err)
		}
	}
	if len(retained) != packets {
		t.Fatalf("observer saw %d exchanges, want %d", len(retained), packets)
	}
	probes, withControl := 0, 0
	for i, ex := range retained {
		if !reflect.DeepEqual(ex, copies[i]) {
			t.Errorf("exchange %d changed after its callback returned", i)
		}
		if ex.Probe != nil {
			probes++
		}
		if len(ex.ControlSent) > 0 {
			withControl++
		}
	}
	if probes == 0 || withControl == 0 {
		t.Fatalf("session exercised %d probes and %d control exchanges; want both > 0", probes, withControl)
	}
}

// deepCopyExchange copies every slice an Exchange (and its Probe) holds,
// keeping nil and empty slices distinct.
func deepCopyExchange(ex *Exchange) *Exchange {
	cp := *ex
	cp.Data = slices.Clone(ex.Data)
	cp.ControlSent = slices.Clone(ex.ControlSent)
	cp.ControlReceived = slices.Clone(ex.ControlReceived)
	cp.ControlPayload = slices.Clone(ex.ControlPayload)
	cp.ControlSubcarriers = slices.Clone(ex.ControlSubcarriers)
	if ex.Probe != nil {
		p := *ex.Probe
		p.EVM = slices.Clone(p.EVM)
		p.ErrorVectors = slices.Clone(p.ErrorVectors)
		p.SubcarrierErrorCounts = slices.Clone(p.SubcarrierErrorCounts)
		p.SubcarrierSymbols = slices.Clone(p.SubcarrierSymbols)
		p.SymbolErrorPositions = slices.Clone(p.SymbolErrorPositions)
		p.ErasurePositions = slices.Clone(p.ErasurePositions)
		p.ControlSubcarriers = slices.Clone(p.ControlSubcarriers)
		p.DetectorThresholds = slices.Clone(p.DetectorThresholds)
		p.DetectorEnergyRatios = slices.Clone(p.DetectorEnergyRatios)
		cp.Probe = &p
	}
	return &cp
}
