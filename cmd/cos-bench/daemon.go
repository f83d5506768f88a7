package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io/fs"
	"math"
	"path/filepath"
	"time"

	"cos/internal/obs/event"
	"cos/internal/serve"
	"cos/internal/serve/cache"
	"cos/internal/serve/store"
)

// daemon is an in-process serve.Server configured as cos-serve configures
// it by default: 2 shards, 16 queued jobs per shard, a 4096-event journal
// with 1 s summary frames, a 256 MiB result cache and a durable store.
type daemon struct {
	srv     *serve.Server
	cache   *cache.Cache
	store   *store.Store
	journal *event.Journal
	dir     string
}

func openDaemon(dir string, shards int) (*daemon, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	d := &daemon{cache: cache.New(cache.DefaultMaxBytes), store: st, journal: event.New(4096), dir: dir}
	d.srv = serve.New(serve.Config{
		Shards:         shards,
		QueueDepth:     16,
		DefaultTimeout: 60 * time.Second,
		Journal:        d.journal,
		SummaryEvery:   time.Second,
		Cache:          d.cache,
		Store:          st,
	})
	return d, nil
}

// close drains the server and releases its journal and store.
func (d *daemon) close() error {
	clean := d.srv.Drain(5 * time.Second)
	d.journal.Close()
	err := d.store.Close()
	if !clean {
		return fmt.Errorf("daemon in %s: drain window expired", d.dir)
	}
	return err
}

// dirBytes totals the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, de fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if de.Type().IsRegular() {
			info, err := de.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// The NDJSON records a job streams, as the serve API documents them. The
// benchmark decodes the wire format, not the server's types.
type (
	wireRecord struct {
		Type string `json:"type"`
	}
	wirePacket struct {
		Seq          int     `json:"seq"`
		DataOK       bool    `json:"data_ok"`
		CtrlBitsSent int     `json:"ctrl_bits_sent"`
		CtrlOK       bool    `json:"ctrl_ok"`
		Silences     int     `json:"silences"`
		MeasuredSNR  float64 `json:"measured_snr_db"`
	}
	wireLinkSummary struct {
		Packets           int     `json:"packets"`
		DataDelivered     int     `json:"data_delivered"`
		CtrlSent          int     `json:"ctrl_sent"`
		CtrlDelivered     int     `json:"ctrl_delivered"`
		CtrlBitsDelivered int     `json:"ctrl_bits_delivered"`
		Silences          int     `json:"silences"`
		MeanMeasuredSNR   float64 `json:"mean_measured_snr_db"`
	}
	wireStream struct {
		Index       int  `json:"index"`
		Delivered   bool `json:"delivered"`
		PacketsUsed int  `json:"packets_used"`
	}
	wireStreamSummary struct {
		Sends       int `json:"sends"`
		Delivered   int `json:"delivered"`
		PacketsUsed int `json:"packets_used"`
	}
	wireWLANReport struct {
		Coordination      string  `json:"coordination"`
		Rounds            int     `json:"rounds"`
		GrantDeliveryRate float64 `json:"grant_delivery_rate"`
		ControlAirtimeSec float64 `json:"control_airtime_seconds"`
	}
	wireWLANSummary struct {
		Stations               int     `json:"stations"`
		Rounds                 int     `json:"rounds"`
		ControlAirtimeSavedSec float64 `json:"control_airtime_saved_seconds"`
		CoSGrantDeliveryRate   float64 `json:"cos_grant_delivery_rate"`
		ExplGrantDeliveryRate  float64 `json:"explicit_grant_delivery_rate"`
	}
	wireTask struct {
		Figure string          `json:"figure"`
		Task   int             `json:"task"`
		Record json.RawMessage `json:"record"`
	}
)

// checkBody parses every NDJSON record of a job's result and checks that
// the closing summary agrees with the tallies of the records before it.
func checkBody(spec serve.Spec, body []byte) error {
	var lines [][]byte
	var types []string
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		line := append([]byte(nil), sc.Bytes()...)
		var r wireRecord
		if err := json.Unmarshal(line, &r); err != nil {
			return fmt.Errorf("record %d does not parse: %v", len(lines), err)
		}
		lines, types = append(lines, line), append(types, r.Type)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(lines) == 0 {
		return fmt.Errorf("empty result")
	}
	last := len(lines) - 1
	each := func(typ string, n int, fn func(i int, line []byte) error) error {
		if last != n {
			return fmt.Errorf("%d records before the summary, want %d", last, n)
		}
		for i := 0; i < n; i++ {
			if types[i] != typ {
				return fmt.Errorf("record %d is %q, want %q", i, types[i], typ)
			}
			if err := fn(i, lines[i]); err != nil {
				return fmt.Errorf("record %d: %v", i, err)
			}
		}
		return nil
	}
	switch spec.Kind {
	case serve.KindLink:
		var want wireLinkSummary
		var snr float64
		err := each("packet", spec.Packets, func(i int, line []byte) error {
			var p wirePacket
			if err := json.Unmarshal(line, &p); err != nil {
				return err
			}
			if p.Seq != i {
				return fmt.Errorf("seq %d", p.Seq)
			}
			want.Packets++
			if p.DataOK {
				want.DataDelivered++
			}
			if p.CtrlBitsSent > 0 {
				want.CtrlSent++
				if p.CtrlOK {
					want.CtrlDelivered++
					want.CtrlBitsDelivered += p.CtrlBitsSent
				}
			}
			want.Silences += p.Silences
			snr += p.MeasuredSNR
			return nil
		})
		if err != nil {
			return err
		}
		var got wireLinkSummary
		if err := decodeSummary(lines[last], types[last], "link_summary", &got); err != nil {
			return err
		}
		want.MeanMeasuredSNR = snr / float64(want.Packets)
		if !close64(got.MeanMeasuredSNR, want.MeanMeasuredSNR) {
			return fmt.Errorf("summary mean SNR %v, records give %v", got.MeanMeasuredSNR, want.MeanMeasuredSNR)
		}
		got.MeanMeasuredSNR = want.MeanMeasuredSNR
		if got != want {
			return fmt.Errorf("summary %+v, records give %+v", got, want)
		}
	case serve.KindStream:
		var want wireStreamSummary
		err := each("stream", spec.Sends, func(i int, line []byte) error {
			var s wireStream
			if err := json.Unmarshal(line, &s); err != nil {
				return err
			}
			if s.Index != i {
				return fmt.Errorf("index %d", s.Index)
			}
			want.Sends++
			if s.Delivered {
				want.Delivered++
			}
			want.PacketsUsed += s.PacketsUsed
			return nil
		})
		if err != nil {
			return err
		}
		var got wireStreamSummary
		if err := decodeSummary(lines[last], types[last], "stream_summary", &got); err != nil {
			return err
		}
		if got != want {
			return fmt.Errorf("summary %+v, records give %+v", got, want)
		}
	case serve.KindWLAN:
		var reps [2]wireWLANReport
		err := each("wlan_report", 2, func(i int, line []byte) error {
			if err := json.Unmarshal(line, &reps[i]); err != nil {
				return err
			}
			if reps[i].Rounds != spec.Rounds {
				return fmt.Errorf("%d rounds, spec asked %d", reps[i].Rounds, spec.Rounds)
			}
			return nil
		})
		if err != nil {
			return err
		}
		var got wireWLANSummary
		if err := decodeSummary(lines[last], types[last], "wlan_summary", &got); err != nil {
			return err
		}
		cosRep, expRep := reps[0], reps[1]
		want := wireWLANSummary{
			Stations:               spec.Stations,
			Rounds:                 spec.Rounds,
			ControlAirtimeSavedSec: expRep.ControlAirtimeSec - cosRep.ControlAirtimeSec,
			CoSGrantDeliveryRate:   cosRep.GrantDeliveryRate,
			ExplGrantDeliveryRate:  expRep.GrantDeliveryRate,
		}
		if !close64(got.ControlAirtimeSavedSec, want.ControlAirtimeSavedSec) {
			return fmt.Errorf("summary airtime saved %v, records give %v", got.ControlAirtimeSavedSec, want.ControlAirtimeSavedSec)
		}
		got.ControlAirtimeSavedSec = want.ControlAirtimeSavedSec
		if got != want {
			return fmt.Errorf("summary %+v, records give %+v", got, want)
		}
	case serve.KindFigureTask:
		// One record and nothing else: the task's own.
		var t wireTask
		if err := decodeSummary(lines[last], types[last], "figure_task", &t); err != nil {
			return err
		}
		if last != 0 || t.Figure != spec.Figure || t.Task != spec.Task || !json.Valid(t.Record) {
			return fmt.Errorf("figure_task record %s/%d (of %d records) for spec %s/%d", t.Figure, t.Task, last+1, spec.Figure, spec.Task)
		}
	default:
		return fmt.Errorf("no check for kind %q", spec.Kind)
	}
	return nil
}

func decodeSummary(line []byte, typ, want string, v any) error {
	if typ != want {
		return fmt.Errorf("last record is %q, want %q", typ, want)
	}
	return json.Unmarshal(line, v)
}

// close64 compares two sums of the same terms taken in possibly different
// order.
func close64(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}
