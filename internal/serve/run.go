package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"

	"cos"
	"cos/internal/experiments"
	"cos/internal/pool"
	"cos/internal/scenario"
	"cos/internal/wlan"
)

// run executes a normalized spec, writing NDJSON records to w in
// simulation order. Every record is a struct (never a map), so field
// order — and therefore the byte stream — is deterministic; all
// randomness derives from spec.Seed.
//
// hook holds the options appended to every link the workload builds: the
// job's exchange observer (per-stage timings, and the trace capture of a
// traced job) and, for a probed trace, cos.WithProbe. figure_task jobs
// have no per-link hook (a point-task builds its own channels) and ignore
// it — a traced figure_task job yields a header-only trace. Admission
// refuses a probe cadence on wlan and figure_task jobs, so only link and
// stream traces carry probes.
func run(ctx context.Context, spec Spec, w io.Writer, hook []cos.Option) error {
	enc := json.NewEncoder(w)
	switch spec.Kind {
	case KindLink:
		return runLink(ctx, spec, enc, hook)
	case KindStream:
		return runStream(ctx, spec, enc, hook)
	case KindWLAN:
		return runWLAN(ctx, spec, enc, hook)
	case KindFigureTask:
		return runFigureTask(ctx, spec, enc)
	default:
		// Validate rejected unknown kinds at admission; reaching here is a
		// programming error, reported as a failed job rather than a panic.
		return &ConfigError{Field: "kind", Reason: "unknown kind " + string(spec.Kind)}
	}
}

// ConfigError reports a spec field the executor could not honor.
type ConfigError struct {
	Field  string
	Reason string
}

// Error implements error.
func (e *ConfigError) Error() string { return "serve: " + e.Field + ": " + e.Reason }

// linkOptions builds the cos.Link options shared by link and stream jobs,
// ending with the job's hook.
func linkOptions(spec Spec, hook []cos.Option) ([]cos.Option, error) {
	pos, err := parsePosition(spec.Position)
	if err != nil {
		return nil, err
	}
	opts := []cos.Option{
		cos.WithPosition(pos),
		cos.WithSNR(spec.SNRdB),
		cos.WithSeed(spec.Seed),
	}
	if spec.Scenario != "" {
		ref, err := scenario.ParseRef(spec.Scenario)
		if err != nil {
			return nil, err
		}
		opts = append(opts, cos.WithScenario(ref.Name, ref.Params...))
	}
	if spec.Mobile {
		opts = append(opts, cos.WithMobile())
	}
	return append(opts, hook...), nil
}

// packetRecord is one link exchange.
type packetRecord struct {
	Type          string  `json:"type"` // "packet"
	Seq           int     `json:"seq"`
	RateMbps      int     `json:"rate_mbps"`
	DataOK        bool    `json:"data_ok"`
	CtrlBitsSent  int     `json:"ctrl_bits_sent"`
	CtrlOK        bool    `json:"ctrl_ok"`
	Silences      int     `json:"silences"`
	MeasuredSNRdB float64 `json:"measured_snr_db"`
}

// linkSummary closes a link job's stream.
type linkSummary struct {
	Type              string  `json:"type"` // "link_summary"
	Packets           int     `json:"packets"`
	DataDelivered     int     `json:"data_delivered"`
	CtrlSent          int     `json:"ctrl_sent"`
	CtrlDelivered     int     `json:"ctrl_delivered"`
	CtrlBitsDelivered int     `json:"ctrl_bits_delivered"`
	Silences          int     `json:"silences"`
	FalsePositives    int     `json:"detector_false_positives"`
	FalseNegatives    int     `json:"detector_false_negatives"`
	MeanMeasuredSNRdB float64 `json:"mean_measured_snr_db"`
	ElapsedSimSeconds float64 `json:"elapsed_sim_seconds"`
}

func runLink(ctx context.Context, spec Spec, enc *json.Encoder, hook []cos.Option) error {
	opts, err := linkOptions(spec, hook)
	if err != nil {
		return err
	}
	link, err := cos.NewLink(opts...)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(spec.Seed + 1))
	data := make([]byte, spec.PayloadBytes)
	sum := linkSummary{Type: "link_summary", Packets: spec.Packets}
	for i := 0; i < spec.Packets; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		rng.Read(data)
		var ctrl []byte
		if spec.ControlBits > 0 {
			budget, err := link.MaxControlBits(len(data))
			if err != nil {
				return err
			}
			n := spec.ControlBits
			if n > budget {
				n = budget
			}
			n = n / 4 * 4
			ctrl = make([]byte, n)
			for j := range ctrl {
				ctrl[j] = byte(rng.Intn(2))
			}
		}
		ex, err := link.Send(data, ctrl)
		if err != nil {
			return err
		}
		if ex.DataOK {
			sum.DataDelivered++
		}
		if len(ex.ControlSent) > 0 {
			sum.CtrlSent++
			if ex.ControlOK {
				sum.CtrlDelivered++
				sum.CtrlBitsDelivered += len(ex.ControlSent)
			}
		}
		sum.Silences += ex.SilencesInserted
		sum.FalsePositives += ex.Detection.FalsePositives
		sum.FalseNegatives += ex.Detection.FalseNegatives
		sum.MeanMeasuredSNRdB += ex.MeasuredSNRdB
		if err := enc.Encode(packetRecord{
			Type:          "packet",
			Seq:           ex.Seq,
			RateMbps:      ex.Mode.RateMbps,
			DataOK:        ex.DataOK,
			CtrlBitsSent:  len(ex.ControlSent),
			CtrlOK:        ex.ControlOK,
			Silences:      ex.SilencesInserted,
			MeasuredSNRdB: ex.MeasuredSNRdB,
		}); err != nil {
			return err
		}
	}
	sum.MeanMeasuredSNRdB /= float64(spec.Packets)
	sum.ElapsedSimSeconds = link.Now()
	return enc.Encode(sum)
}

// streamRecord is one SendStream transfer.
type streamRecord struct {
	Type               string `json:"type"` // "stream"
	Index              int    `json:"index"`
	Outcome            string `json:"outcome"`
	Delivered          bool   `json:"delivered"`
	PacketsUsed        int    `json:"packets_used"`
	FragmentsSent      int    `json:"fragments_sent"`
	FragmentsDelivered int    `json:"fragments_delivered"`
}

// streamSummary closes a stream job's stream.
type streamSummary struct {
	Type        string `json:"type"` // "stream_summary"
	Sends       int    `json:"sends"`
	Delivered   int    `json:"delivered"`
	PacketsUsed int    `json:"packets_used"`
}

func runStream(ctx context.Context, spec Spec, enc *json.Encoder, hook []cos.Option) error {
	opts, err := linkOptions(spec, hook)
	if err != nil {
		return err
	}
	opts = append(opts, cos.WithControlFraming())
	link, err := cos.NewLink(opts...)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(spec.Seed + 1))
	data := make([]byte, spec.PayloadBytes)
	payload := make([]byte, spec.StreamBits)
	sum := streamSummary{Type: "stream_summary", Sends: spec.Sends}
	for i := 0; i < spec.Sends; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		rng.Read(data)
		for j := range payload {
			payload[j] = byte(rng.Intn(2)) // SendStream takes a bit string
		}
		res, err := link.SendStream(payload, data)
		if err != nil {
			return err
		}
		delivered := res.Outcome == cos.StreamDelivered
		if delivered {
			sum.Delivered++
		}
		sum.PacketsUsed += res.PacketsUsed
		if err := enc.Encode(streamRecord{
			Type:               "stream",
			Index:              i,
			Outcome:            res.Outcome.String(),
			Delivered:          delivered,
			PacketsUsed:        res.PacketsUsed,
			FragmentsSent:      res.FragmentsSent,
			FragmentsDelivered: res.FragmentsDelivered,
		}); err != nil {
			return err
		}
	}
	return enc.Encode(sum)
}

// wlanRecord reports one coordination scheme's run.
type wlanRecord struct {
	Type              string  `json:"type"` // "wlan_report"
	Coordination      string  `json:"coordination"`
	Rounds            int     `json:"rounds"`
	DataDelivered     int     `json:"data_delivered"`
	DataLost          int     `json:"data_lost"`
	GrantsDelivered   int     `json:"grants_delivered"`
	GrantsLost        int     `json:"grants_lost"`
	GrantDeliveryRate float64 `json:"grant_delivery_rate"`
	DataAirtimeSec    float64 `json:"data_airtime_seconds"`
	ControlAirtimeSec float64 `json:"control_airtime_seconds"`
	ControlOverhead   float64 `json:"control_overhead"`
}

// wlanSummary compares the two schemes.
type wlanSummary struct {
	Type                    string  `json:"type"` // "wlan_summary"
	Stations                int     `json:"stations"`
	Rounds                  int     `json:"rounds"`
	OverheadSavedFraction   float64 `json:"overhead_saved_fraction"`
	ControlAirtimeSavedSec  float64 `json:"control_airtime_saved_seconds"`
	CoSGrantDeliveryRate    float64 `json:"cos_grant_delivery_rate"`
	ExplGrantDeliveryRate   float64 `json:"explicit_grant_delivery_rate"`
	CoSDataDeliveredPerLost float64 `json:"cos_data_delivered_per_lost"`
}

func runWLAN(ctx context.Context, spec Spec, enc *json.Encoder, hook []cos.Option) error {
	runOne := func(coord wlan.Coordination) (*wlan.Report, error) {
		n, err := wlan.New(wlan.Config{
			Stations:     spec.Stations,
			SNRdB:        spec.SNRdB,
			PayloadBytes: spec.PayloadBytes,
			Coordination: coord,
			Seed:         spec.Seed,
			Scenario:     spec.Scenario,
			LinkOptions:  hook,
		})
		if err != nil {
			return nil, err
		}
		return n.RunContext(ctx, spec.Rounds)
	}
	record := func(coord wlan.Coordination, rep *wlan.Report) error {
		return enc.Encode(wlanRecord{
			Type:              "wlan_report",
			Coordination:      coord.String(),
			Rounds:            rep.Rounds,
			DataDelivered:     rep.DataDelivered,
			DataLost:          rep.DataLost,
			GrantsDelivered:   rep.GrantsDelivered,
			GrantsLost:        rep.GrantsLost,
			GrantDeliveryRate: rep.GrantDeliveryRate(),
			DataAirtimeSec:    rep.DataAirtime,
			ControlAirtimeSec: rep.ControlAirtime,
			ControlOverhead:   rep.ControlOverhead(),
		})
	}
	cosRep, err := runOne(wlan.CoordCoS)
	if err != nil {
		return err
	}
	if err := record(wlan.CoordCoS, cosRep); err != nil {
		return err
	}
	expRep, err := runOne(wlan.CoordExplicit)
	if err != nil {
		return err
	}
	if err := record(wlan.CoordExplicit, expRep); err != nil {
		return err
	}
	sum := wlanSummary{
		Type:                   "wlan_summary",
		Stations:               spec.Stations,
		Rounds:                 spec.Rounds,
		ControlAirtimeSavedSec: expRep.ControlAirtime - cosRep.ControlAirtime,
		CoSGrantDeliveryRate:   cosRep.GrantDeliveryRate(),
		ExplGrantDeliveryRate:  expRep.GrantDeliveryRate(),
	}
	if expRep.ControlOverhead() > 0 {
		sum.OverheadSavedFraction = 1 - cosRep.ControlOverhead()/expRep.ControlOverhead()
	}
	if cosRep.DataLost > 0 {
		sum.CoSDataDeliveredPerLost = float64(cosRep.DataDelivered) / float64(cosRep.DataLost)
	}
	return enc.Encode(sum)
}

// TaskRecord is the single NDJSON record a figure_task job streams: the
// point-task's serialized outcome, echoed with enough addressing (figure,
// task index) for a coordinator to slot it into the assembly without
// trusting response ordering. Exported because the fleet package decodes
// result bodies back into records.
type TaskRecord struct {
	Type   string          `json:"type"` // "figure_task"
	Figure string          `json:"figure"`
	Task   int             `json:"task"`
	Record json.RawMessage `json:"record"`
}

func runFigureTask(ctx context.Context, spec Spec, enc *json.Encoder) error {
	ts, ok := experiments.Tasks(spec.Figure, spec.taskRunOptions())
	if !ok {
		// Validate rejected unknown figures at admission.
		return &ConfigError{Field: "figure", Reason: "unknown figure " + spec.Figure}
	}
	if spec.Task < 0 || spec.Task >= ts.NumTasks() {
		return &ConfigError{Field: "task", Reason: fmt.Sprintf("task %d outside [0,%d)", spec.Task, ts.NumTasks())}
	}
	// The task RNG is derived exactly as the in-process pool derives it
	// (pool.TaskSeed(seed, i)), which is the whole determinism story: this
	// record is byte-for-byte what the local closure would have computed.
	rec, err := ts.RunTask(ctx, spec.Task, pool.TaskRNG(spec.Seed, spec.Task))
	if err != nil {
		return err
	}
	return enc.Encode(TaskRecord{Type: "figure_task", Figure: spec.Figure, Task: spec.Task, Record: rec})
}
