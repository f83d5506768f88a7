package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"

	"cos"
)

// link-1k: one cos.Link at position B, static channel, 20 dB, driven
// closed loop with 1 KB payloads and up to 24 control bits.
const (
	linkPayload = 1024
	linkMaxCtrl = 24
	linkWarmup  = 20
	linkSNR     = 20
	// linkBlock is how many exchanges a traced run sends on one link of
	// its A/B pair before switching to the other.
	linkBlock = 10
)

// pipelineOrder lays Link.Send's stages out in the order they execute
// (control decoding follows the EVD decode), for the spans reconstructed
// from Exchange.StageNS.
var pipelineOrder = []cos.Stage{
	cos.StageTxEncode, cos.StageChannel, cos.StageFrontEnd, cos.StageDetect,
	cos.StageEVD, cos.StageControlDecode, cos.StageFeedback,
}

// newWarmLink builds the link and sends the warm-up exchanges, so the
// measured exchanges start with feedback, rate and budget settled.
func newWarmLink(seed int64) (*cos.Link, error) {
	link, err := cos.NewLink(cos.WithPosition(cos.PositionB), cos.WithSNR(linkSNR), cos.WithSeed(seed))
	if err != nil {
		return nil, err
	}
	in := &linkInputs{rng: rngFor(seed, streamLinkWarmup)}
	payload, ctrl := make([]byte, linkPayload), make([]byte, linkMaxCtrl)
	for i := 0; i < linkWarmup; i++ {
		want := in.next(payload, ctrl)
		n, err := controlBits(link, want)
		if err != nil {
			return nil, err
		}
		if _, err := link.Send(payload, ctrl[:n]); err != nil {
			return nil, fmt.Errorf("warm-up exchange %d: %w", i, err)
		}
	}
	return link, nil
}

// controlBits is how many of want control bits the link's current budget
// admits, rounded down to whole 4-bit intervals.
func controlBits(link *cos.Link, want int) (int, error) {
	budget, err := link.MaxControlBits(linkPayload)
	if err != nil {
		return 0, err
	}
	return min(want, budget) / 4 * 4, nil
}

// checkExchange verifies what the link reports against what was sent.
func checkExchange(ex *cos.Exchange, payload, ctrl []byte) error {
	if !bytes.Equal(ex.ControlSent, ctrl) {
		return fmt.Errorf("exchange %d: ControlSent differs from the control bits sent", ex.Seq)
	}
	if ex.DataOK && !bytes.Equal(ex.Data, payload) {
		return fmt.Errorf("exchange %d: DataOK but the decoded payload differs", ex.Seq)
	}
	wantOK := len(ctrl) > 0 && len(ex.ControlReceived) >= len(ctrl) && bytes.Equal(ex.ControlReceived[:len(ctrl)], ctrl)
	if ex.ControlOK != wantOK {
		return fmt.Errorf("exchange %d: ControlOK=%v but the prefix comparison says %v", ex.Seq, ex.ControlOK, wantOK)
	}
	return nil
}

// linkSide accumulates one link's measured exchanges.
type linkSide struct {
	link      *cos.Link
	tr        *tracer
	busy      time.Duration
	latencyMS []float64
	done      []time.Time
	exchanges int
	dataOK    int
	ctrlSent  int
	ctrlOK    int
	silences  int
	ctrlBits  int
	// mallocs and allocBytes cover this side's blocks (untraced side of a
	// traced run only).
	mallocs, allocBytes uint64
}

func (s *linkSide) send(payload, ctrl []byte, o *outcome) (*cos.Exchange, error) {
	id := s.tr.id()
	t0 := time.Now()
	ex, err := s.link.Send(payload, ctrl)
	t1 := time.Now()
	o.attempted++
	if err != nil {
		return nil, err
	}
	d := t1.Sub(t0)
	s.busy += d
	s.latencyMS = append(s.latencyMS, ms(d))
	s.done = append(s.done, t1)
	s.exchanges++
	if ex.DataOK {
		s.dataOK++
	}
	if len(ex.ControlSent) > 0 {
		s.ctrlSent++
		if ex.ControlOK {
			s.ctrlOK++
		}
	}
	s.silences += ex.SilencesInserted
	s.ctrlBits += len(ex.ControlSent)
	if err := checkExchange(ex, payload, ctrl); err != nil {
		o.fail("%v", err)
	}
	if s.tr != nil {
		req := fmt.Sprintf("x%d", ex.Seq)
		at := t0
		for _, st := range pipelineOrder {
			end := at.Add(time.Duration(ex.StageNS[st]))
			s.tr.record(0, id, "cos.stage."+st.String(), req, at, end)
			at = end
		}
		s.tr.record(id, 0, "cos.send", req, t0, t1)
	}
	return ex, nil
}

func runLink1K(ctx context.Context, e *env) (*outcome, error) {
	o := newOutcome()
	// A traced run drives two identical links in alternating blocks on the
	// same inputs, one traced and one not, so the tracing overhead is
	// measured on identical work.
	nlinks := 1
	if e.tr != nil {
		nlinks = 2
	}
	var sides []*linkSide
	for r := 0; r < e.setupReps(); r++ {
		t0 := time.Now()
		sides = sides[:0]
		for i := 0; i < nlinks; i++ {
			link, err := newWarmLink(e.seed)
			if err != nil {
				return nil, err
			}
			sides = append(sides, &linkSide{link: link})
		}
		o.setupS = append(o.setupS, time.Since(t0).Seconds())
	}
	if e.tr != nil {
		sides[1].tr = e.tr
	}

	in := &linkInputs{rng: rngFor(e.seed, streamLinkInputs)}
	payloads := make([][]byte, linkBlock)
	ctrls := make([][]byte, linkBlock)
	wants := make([]int, linkBlock)
	for i := range payloads {
		payloads[i], ctrls[i] = make([]byte, linkPayload), make([]byte, linkMaxCtrl)
	}
	mark := e.tr.count()
	rt := beginRuntime()
	start := time.Now()
	deadline := start.Add(e.seconds)
	for block := 0; time.Now().Before(deadline); block++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for i := range payloads {
			wants[i] = in.next(payloads[i], ctrls[i])
		}
		var outs [2][linkBlock]*cos.Exchange
		for k := range sides {
			idx := (k + block) % len(sides) // alternate which side goes first
			side := sides[idx]
			var before runtime.MemStats
			if len(sides) == 2 && side.tr == nil {
				runtime.ReadMemStats(&before)
			}
			for i := range payloads {
				n, err := controlBits(side.link, wants[i])
				if err != nil {
					return nil, err
				}
				ex, err := side.send(payloads[i], ctrls[i][:n], o)
				if err != nil {
					o.fail("send: %v", err)
					continue
				}
				outs[idx][i] = ex
			}
			if len(sides) == 2 && side.tr == nil {
				var after runtime.MemStats
				runtime.ReadMemStats(&after)
				side.mallocs += after.Mallocs - before.Mallocs
				side.allocBytes += after.TotalAlloc - before.TotalAlloc
			}
		}
		if len(sides) == 2 {
			for i := range payloads {
				a, b := outs[0][i], outs[1][i]
				if a != nil && b != nil && (a.DataOK != b.DataOK || a.ControlOK != b.ControlOK || a.SilencesInserted != b.SilencesInserted) {
					o.fail("exchange %d: traced and untraced links diverged", a.Seq)
				}
			}
		}
	}
	end := time.Now()

	// The measured side: the only link untraced, the traced one otherwise.
	m := sides[len(sides)-1]
	o.opsPerS = upperQuartile(sliceRates(m.done, start, end))
	o.latencyMS = m.latencyMS
	printf(e, "link-1k exchanges %d, exchanges_per_s %.4f over the run, exchange_p50_ms %s, exchange_p99_ms %s",
		m.exchanges, float64(m.exchanges)/end.Sub(start).Seconds(), tail(m.latencyMS, 50), tail(m.latencyMS, 99))
	if m.exchanges > 0 {
		printf(e, "link-1k data_ok_rate %.6f control_ok_rate %.6f", float64(m.dataOK)/float64(m.exchanges), ratio(m.ctrlOK, m.ctrlSent))
	}
	if e.tr == nil {
		return o, nil
	}

	rt.end(o, o.attempted)
	u := sides[0]
	spans := e.tr.since(mark)
	self := selfTimes(spans)
	n := float64(m.exchanges)
	for _, st := range pipelineOrder {
		name := "cos.stage." + st.String()
		ss := statsOf(spans, self, name)
		o.layer[name+"_us"] = ss.meanUS
	}
	o.layer["cos.send_self_us"] = statsOf(spans, self, "cos.send").selfUS
	o.layer["cos.allocs_per_exchange"] = float64(u.mallocs) / float64(u.exchanges)
	o.layer["cos.bytes_per_exchange"] = float64(u.allocBytes) / float64(u.exchanges)
	o.layer["cos.silences_per_exchange"] = float64(m.silences) / n
	o.layer["cos.control_bits_per_exchange"] = float64(m.ctrlBits) / n
	o.layer["cos.data_ok_rate"] = float64(m.dataOK) / n
	o.layer["cos.control_ok_rate"] = ratio(m.ctrlOK, m.ctrlSent)
	o.layer["bench.trace_overhead_frac"] = m.busy.Seconds()/u.busy.Seconds() - 1
	return o, nil
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
