package servehttp

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"strings"

	"cos/internal/obs/event"
	"cos/internal/serve"
)

var (
	errJournalDisabled = errors.New("event journal disabled")
	errBadBuf          = errors.New("buf must be a positive integer")
)

// GET /events streams the server's journal.
//
// Formats:
//
//	default            NDJSON — one event JSON object per line
//	Accept: text/event-stream (or ?sse=1)
//	                   SSE — "id: <seq>" + "data: <json>" frames, so
//	                   EventSource reconnects resume via Last-Event-ID
//
// Query parameters:
//
//	since=N    replay retained events with seq > N before going live
//	           (SSE reconnects may send Last-Event-ID instead)
//	type=a,b   keep only these event types
//	job=ID     keep only events for this job (typed "" events still match
//	           when job is empty)
//	follow=0   snapshot mode: send the replay, then close
//	buf=N      subscriber channel capacity (default 64)
//
// The subscription never blocks the server: a slow consumer has its oldest
// pending events dropped, and the gap is reported in-band as a synthetic
// {"seq":0,"type":"events_dropped","data":{"dropped":N}} record before the
// next real event.
func handleEvents(s *serve.Server, w http.ResponseWriter, r *http.Request) {
	j := s.Journal()
	if j == nil {
		writeError(w, http.StatusNotFound, CodeNotFound, errJournalDisabled)
		return
	}
	q := r.URL.Query()

	since, err := parseUint(q.Get("since"))
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, err)
		return
	}
	// SSE reconnects send the last seen id as a header.
	if h := r.Header.Get("Last-Event-ID"); h != "" && q.Get("since") == "" {
		if v, err := parseUint(h); err == nil {
			since = v
		}
	}
	buf := 64
	if v := q.Get("buf"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeError(w, http.StatusBadRequest, CodeBadRequest, errBadBuf)
			return
		}
		buf = n
	}
	follow := q.Get("follow") != "0"
	keep := eventFilter(q.Get("type"), q.Get("job"))
	sse := q.Get("sse") == "1" || strings.Contains(r.Header.Get("Accept"), "text/event-stream")

	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		// Push the headers out now so clients see the stream open even if
		// no event arrives for a while.
		flusher.Flush()
	}

	// A resume point older than the ring's oldest retained event means the
	// client lost events to eviction; measure before subscribing so the
	// replay that follows starts right after the reported gap.
	evicted := uint64(0)
	if oldest := j.OldestSeq(); since > 0 && oldest > since+1 {
		evicted = oldest - since - 1
	}
	sub := j.Subscribe(since, buf)
	defer sub.Cancel()

	write := func(ev event.Event) bool {
		data, err := json.Marshal(ev)
		if err != nil {
			return false
		}
		if sse {
			// seq 0 marks synthetic gap records; real events carry their
			// seq as the SSE id for Last-Event-ID resume.
			if ev.Seq > 0 {
				if _, err := w.Write([]byte("id: " + strconv.FormatUint(ev.Seq, 10) + "\n")); err != nil {
					return false
				}
			}
			if _, err := w.Write(append(append([]byte("data: "), data...), '\n', '\n')); err != nil {
				return false
			}
		} else {
			if _, err := w.Write(append(data, '\n')); err != nil {
				return false
			}
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}

	if evicted > 0 && !write(gapEvent(evicted)) {
		return
	}

	// The subscription channel is pre-filled with the replay and closes when
	// the journal closes; snapshot mode stops once the replay drains.
	replayEnd := j.LastSeq()
	ctx := r.Context()
	for {
		var ev event.Event
		var ok bool
		select {
		case <-ctx.Done():
			return
		case ev, ok = <-sub.C():
		default:
			if !follow {
				return // snapshot mode: replay drained
			}
			// Block until the next event or disconnect.
			select {
			case <-ctx.Done():
				return
			case ev, ok = <-sub.C():
			}
		}
		if !ok {
			return
		}
		// Events the subscription dropped before this one are reported
		// ahead of it.
		if n := sub.TakeDropped(); n > 0 && !write(gapEvent(n)) {
			return
		}
		if keep(ev) && !write(ev) {
			return
		}
		if !follow && ev.Seq >= replayEnd {
			return
		}
	}
}

// gapEvent is the in-band marker for events lost to a slow consumer. Seq 0
// distinguishes it from journal records, which start at 1.
func gapEvent(n uint64) event.Event {
	data, _ := json.Marshal(map[string]uint64{"dropped": n})
	return event.Event{Type: "events_dropped", Data: data}
}

// eventFilter compiles the type/job query parameters into a predicate.
func eventFilter(types, job string) func(event.Event) bool {
	var want map[string]bool
	if types != "" {
		want = make(map[string]bool)
		for _, t := range strings.Split(types, ",") {
			if t = strings.TrimSpace(t); t != "" {
				want[t] = true
			}
		}
	}
	return func(ev event.Event) bool {
		if want != nil && !want[ev.Type] {
			return false
		}
		if job != "" && ev.Job != job {
			return false
		}
		return true
	}
}

func parseUint(s string) (uint64, error) {
	if s == "" {
		return 0, nil
	}
	return strconv.ParseUint(s, 10, 64)
}
