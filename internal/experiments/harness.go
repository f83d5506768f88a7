package experiments

import (
	"fmt"
	"math/rand"

	"cos/internal/bits"
	"cos/internal/channel"
	icos "cos/internal/cos"
	"cos/internal/ofdm"
	"cos/internal/phy"
	"cos/internal/scenario"
	_ "cos/internal/scenario/all" // register the built-in scenario components
	"cos/internal/scenario/silence"
)

// trialChannel draws the channel model an experiment point-task propagates
// through: the scenario named by ref (default when empty) realized for the
// given geometry, with the scenario's interferer (if any) composed in.
func trialChannel(ref string, pos channel.Position, mobile bool, variant int64) (scenario.ChannelModel, error) {
	sc, err := scenario.FromRef(ref)
	if err != nil {
		return nil, err
	}
	model, err := sc.NewChannel(scenario.Geometry{Position: pos, Mobile: mobile, Variant: variant})
	if err != nil {
		return nil, err
	}
	intf, err := sc.NewInterferer()
	if err != nil {
		return nil, err
	}
	return scenario.Interfered(model, intf), nil
}

// freqResponse reads a channel model's per-subcarrier response, for the
// experiments that plot or threshold against |H|. Models without a
// well-defined response are rejected.
func freqResponse(model scenario.ChannelModel, t float64) ([ofdm.NumSubcarriers]complex128, error) {
	fr, ok := model.(scenario.FrequencyResponder)
	if !ok {
		return [ofdm.NumSubcarriers]complex128{}, fmt.Errorf("experiments: channel model %T exposes no frequency response", model)
	}
	return fr.FrequencyResponse(t), nil
}

// trialScratch is the experiments' reusable working storage: the PHY
// transmit/receive scratch arenas, the silence embedding (which owns the
// interval, layout and mask scratch, as it does in a Link's nodes), and
// the trial's own packet buffers. One scratch serves one point-task;
// results returned by probe and runCoSTrial alias it and are valid only
// until its next use.
type trialScratch struct {
	tx       phy.TxScratch
	rx       phy.RxScratch
	emb      silence.Embedding
	samples  []complex128
	rxBuf    []complex128
	psdu     []byte
	payload  []byte
	ctrl     []byte
	truthMsk [][]bool // the placement ablation's explicit layout
}

// probe pushes one known packet through ch at time t with the given true
// SNR and returns the transmit/receive state for genie-aided measurement
// (the experiments know the transmitted packet, exactly like the paper's
// "fixed data packet whose symbol values are known to both the sender and
// the receiver"). The result aliases s.
type probeResult struct {
	tx        *phy.TxPacket
	fe        *phy.FrontEnd
	actualSNR float64
}

func probe(s *trialScratch, ch scenario.ChannelModel, t float64, mode phy.Mode, psduLen int, actualSNR float64, rng *rand.Rand) (*probeResult, error) {
	if cap(s.psdu) < psduLen {
		s.psdu = make([]byte, psduLen)
	}
	s.psdu = s.psdu[:psduLen]
	rng.Read(s.psdu)
	tx, err := phy.BuildPacketInto(&s.tx, phy.TxConfig{Mode: mode}, s.psdu)
	if err != nil {
		return nil, err
	}
	s.samples, err = tx.SamplesInto(s.samples)
	if err != nil {
		return nil, err
	}
	var actual float64
	s.rxBuf, actual, err = ch.Propagate(s.rxBuf, s.samples, t, actualSNR, rng)
	if err != nil {
		return nil, err
	}
	fe, err := phy.RunFrontEndInto(&s.rx, s.rxBuf)
	if err != nil {
		return nil, err
	}
	return &probeResult{tx: tx, fe: fe, actualSNR: actual}, nil
}

// calibrateActualSNR finds the true SNR that makes the receiver's measured
// (NIC) SNR hit target on channel ch, by fixed-point iteration on the
// measured-vs-actual offset.
func calibrateActualSNR(s *trialScratch, ch scenario.ChannelModel, t float64, mode phy.Mode, target float64, rng *rand.Rand) (float64, error) {
	actual := target
	for iter := 0; iter < 4; iter++ {
		// Average a few probes per step: a single packet's measured-SNR
		// report is noisy enough to leave a persistent calibration error.
		var measured float64
		const probes = 3
		for i := 0; i < probes; i++ {
			pr, err := probe(s, ch, t, mode, 256, actual, rng)
			if err != nil {
				return 0, err
			}
			m, err := pr.fe.MeasuredSNRdB()
			if err != nil {
				return 0, err
			}
			measured += m / probes
		}
		actual += target - measured
		if diff := target - measured; diff < 0.1 && diff > -0.1 {
			break
		}
	}
	return actual, nil
}

// erasureSource picks the mask that marks erasures for a trial's data
// decode.
type erasureSource int

const (
	// erasuresDetected decodes with the receiver's detected mask, as a
	// Link does.
	erasuresDetected erasureSource = iota
	// erasuresTruth decodes with the transmitter's true mask (genie).
	erasuresTruth
	// erasuresNone decodes without any erasure mask (the erasure-ignorant
	// baseline of the EVD ablation).
	erasuresNone
)

// cosTrialConfig parameterizes one CoS packet trial. Control bits are
// interval-coded with icos.DefaultBitsPerInterval bits per interval, as in
// a Link.
type cosTrialConfig struct {
	mode     phy.Mode
	psduLen  int
	silences int // total silence symbols to insert (0 = none)
	ctrlSCs  []int
	detector icos.Detector
	erasures erasureSource
	// placement overrides interval-coded layout with an explicit silence
	// position list (placement ablation); silences is ignored and no
	// control message is decoded when set.
	placement []icos.Pos
	// llrBits quantizes the decoder input (0 = float metrics).
	llrBits int
	// controlOnly stops the trial after control extraction, for callers
	// that read only the control-side outputs: detection and ctrlOK stay
	// valid, while the data decode is skipped and dataOK stays false. The
	// decode draws no randomness, so the trials that follow see the same
	// RNG stream either way.
	controlOnly bool
}

// cosTrialResult reports one trial's outcome.
type cosTrialResult struct {
	dataOK    bool
	ctrlOK    bool
	detection icos.DetectionStats
}

// runCoSTrial sends one FCS-protected packet with an embedded random control
// message sized to produce exactly cfg.silences silence symbols, then runs
// the receive pipeline, all through s's scratch arenas. Embedding,
// detection and interval decoding go through the cos-silence Embedding, the
// calls a Link's transmitter and receiver make; the trial is open-loop (the
// caller fixes the mode, control subcarriers and detector).
func runCoSTrial(s *trialScratch, ch scenario.ChannelModel, t, actualSNR float64, cfg cosTrialConfig, rng *rand.Rand) (*cosTrialResult, error) {
	const k = icos.DefaultBitsPerInterval
	n := cfg.psduLen - bits.FCSLen
	if cap(s.payload) < n {
		s.payload = make([]byte, n)
	}
	s.payload = s.payload[:n]
	rng.Read(s.payload)
	s.psdu = bits.AppendFCSInto(s.psdu, s.payload)
	tx, err := phy.BuildPacketInto(&s.tx, phy.TxConfig{Mode: cfg.mode}, s.psdu)
	if err != nil {
		return nil, err
	}

	var ctrl []byte
	var truthMask [][]bool
	switch {
	case cfg.placement != nil:
		s.truthMsk, err = icos.InsertSilencesInto(s.truthMsk, tx.Grid, cfg.placement)
		if err != nil {
			return nil, err
		}
		truthMask = s.truthMsk
	case cfg.silences > 0:
		// A start marker plus one silence per k-bit interval; one silence
		// is a lone marker carrying no bits, and is still embedded.
		nBits := (cfg.silences - 1) * k
		if cap(s.ctrl) < nBits {
			s.ctrl = make([]byte, nBits)
		}
		ctrl = s.ctrl[:nBits]
		for i := range ctrl {
			ctrl[i] = byte(rng.Intn(2))
		}
		truthMask, _, err = s.emb.Embed(tx, cfg.ctrlSCs, ctrl, k)
		if err != nil {
			return nil, err
		}
	}

	s.samples, err = tx.SamplesInto(s.samples)
	if err != nil {
		return nil, err
	}
	s.rxBuf, _, err = ch.Propagate(s.rxBuf, s.samples, t, actualSNR, rng)
	if err != nil {
		return nil, err
	}
	fe, err := phy.RunFrontEndInto(&s.rx, s.rxBuf)
	if err != nil {
		return nil, err
	}

	res := &cosTrialResult{}
	var mask [][]bool
	if truthMask != nil {
		detected, err := s.emb.Mask(fe, cfg.detector, cfg.ctrlSCs)
		if err != nil {
			return nil, err
		}
		if cfg.placement == nil {
			// Silence extraction reads only the mask, so it needs no data
			// decode.
			got, exErr := s.emb.Extract(nil, detected, cfg.ctrlSCs, k)
			res.ctrlOK = exErr == nil && len(got) >= len(ctrl) && bits.Equal(got[:len(ctrl)], ctrl)
		}
		res.detection, err = icos.CompareMasks(truthMask, detected, cfg.ctrlSCs)
		if err != nil {
			return nil, err
		}
		switch cfg.erasures {
		case erasuresDetected:
			mask = detected
		case erasuresTruth:
			mask = truthMask
		}
	}

	if cfg.controlOnly {
		return res, nil
	}
	dec, err := fe.DecodeInto(&s.rx, phy.DecodeConfig{Mode: cfg.mode, PSDULen: len(s.psdu), Erased: mask, LLRBits: cfg.llrBits})
	if err != nil {
		return nil, err
	}
	if _, ok := bits.CheckFCS(dec.PSDU); ok {
		res.dataOK = true
	}
	return res, nil
}

// selectCtrlSCsForBudget measures EVM and per-subcarrier SNR from a few
// clean probes, then selects enough detectable control subcarriers to fit
// `silences` silence symbols into a packet of nSym symbols (worst-case
// interval spacing). Averaging the probes matters: a
// single packet's channel estimate is noisy enough at weak subcarriers to
// let a borderline-undetectable subcarrier slip past the floor.
func selectCtrlSCsForBudget(s *trialScratch, ch scenario.ChannelModel, t, actualSNR float64, mode phy.Mode, nSym, silences int, rng *rand.Rand) ([]int, error) {
	const probes = 3
	evm := make([]float64, ofdm.NumData)
	snrs := make([]float64, ofdm.NumData)
	for i := 0; i < probes; i++ {
		pr, err := probe(s, ch, t, mode, 256, actualSNR, rng)
		if err != nil {
			return nil, err
		}
		diag, err := phy.Diagnose(pr.tx, pr.fe, nil, nil)
		if err != nil {
			return nil, err
		}
		sc, err := pr.fe.SubcarrierSNRs()
		if err != nil {
			return nil, err
		}
		for d := 0; d < ofdm.NumData; d++ {
			evm[d] += diag.EVM[d] / probes
			snrs[d] += sc[d] / probes
		}
	}
	// Worst-case positions needed: every interval at its maximum.
	need := 1 + silences*(1<<icos.DefaultBitsPerInterval)
	minCtrl := (need + nSym - 1) / nSym
	if minCtrl < 4 {
		minCtrl = 4
	}
	if minCtrl > 24 {
		minCtrl = 24
	}
	sel, err := icos.SelectDetectable(evm, snrs, mode.Modulation, minCtrl, 0, 0)
	if err != nil {
		return nil, err
	}
	if nSym*len(sel) < need {
		return nil, fmt.Errorf("experiments: only %d detectable control subcarriers; %d silences need %d positions over %d symbols",
			len(sel), silences, need, nSym)
	}
	return sel, nil
}

// modeLabel renders "(16QAM,3/4)" style labels used in Fig. 9.
func modeLabel(m phy.Mode) string {
	return fmt.Sprintf("(%v,%v)", m.Modulation, m.CodeRate)
}
