// Command cos-serve is the long-lived CoS simulation service: an HTTP/JSON
// API that accepts simulation jobs — link exchanges, control streams, WLAN
// coordination rounds, and experiment figure point-tasks (figure_task; a
// whole figure is assembled client-side by cos-figures -fleet) — runs them
// on a sharded worker pool with deterministic per-job seeds, and streams
// each job's results back as NDJSON.
//
//	cos-serve -addr :8866 -shards 4 -queue-depth 32
//	cos-serve -addr :8866 -metrics-addr :8080 -stats 10s
//	cos-serve -addr :8866 -data-dir /var/lib/cos-serve
//
// Submit with plain curl:
//
//	curl -d '{"kind":"link","packets":200,"seed":7}' localhost:8866/jobs
//	curl localhost:8866/jobs/job-000001
//	curl -N localhost:8866/jobs/job-000001/result
//
// Results are content-addressed: every job's spec digests to a stable
// SHA-256 key (the "digest" field of its status), equal digests mean
// byte-identical NDJSON streams, and a repeat submission is served from
// the in-memory result cache (200 + "X-Cos-Cache: hit" instead of 202)
// without re-running. With -data-dir set the daemon is also durable: a
// write-ahead log records every admission and terminal result, and a
// restart on the same directory re-serves completed digests
// byte-identically (GET /jobs/<digest>/result) and re-runs whatever the
// previous process left unfinished.
//
// Admission is bounded: when a shard queue is full, submits fail with 429
// and a Retry-After hint. On SIGTERM (or SIGINT) the daemon drains
// gracefully — it stops admitting (submits then get 503), gives queued and
// running jobs the -drain window to finish, cancels the rest, flushes
// metrics, and exits 0.
//
// Every lifecycle transition — the daemon's own (server_listening,
// server_exit) and every job's — is a typed event in a bounded in-memory
// journal, streamed on GET /events and mirrored to stderr as JSON lines.
// Periodic summary frames (-summary-every) carry rolling-window rates and
// latency quantiles; cos-top renders them as a live console.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"cos/internal/cli"
	"cos/internal/obs/event"
	"cos/internal/serve"
	"cos/internal/serve/cache"
	servehttp "cos/internal/serve/http"
	"cos/internal/serve/store"
)

// Daemon-level journal event types; the serve core adds the per-job ones.
const (
	// eventListening: the API socket is bound and accepting requests.
	eventListening = "server_listening"
	// eventExit: the daemon is done; clean reports a full drain.
	eventExit = "server_exit"
)

// listeningEvent is the payload of eventListening.
type listeningEvent struct {
	Addr       string `json:"addr"`
	Shards     int    `json:"shards"`
	QueueDepth int    `json:"queue_depth"`
}

// exitEvent is the payload of eventExit.
type exitEvent struct {
	Clean bool `json:"clean"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// notifyReady, when non-nil, receives the bound listen address once the
// API is accepting requests. Tests hook it to find the ephemeral port.
var notifyReady func(addr string)

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cos-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr       = fs.String("addr", ":8866", "HTTP listen address for the job API")
		shards     = fs.Int("shards", 2, "worker shards (max jobs in flight)")
		queueDepth = fs.Int("queue-depth", 16, "queued jobs per shard before submits get 429")
		timeout    = fs.Duration("timeout", 60*time.Second, "default per-job deadline (specs may override with timeout_ms)")
		drain      = fs.Duration("drain", 5*time.Second, "drain window: time in-flight jobs get to finish after SIGTERM")
		journalCap = fs.Int("journal-cap", 4096, "events retained in the in-memory journal behind GET /events")
		summary    = fs.Duration("summary-every", time.Second, "rolling-window summary frame interval (0 disables)")
		dataDir    = fs.String("data-dir", "", "durable job store directory (WAL + result bodies); empty disables persistence")
		cacheOn    = fs.Bool("cache", true, "serve repeat submissions from the content-addressed result cache")
		cacheMax   = fs.Int64("cache-max-bytes", cache.DefaultMaxBytes, "result cache budget in bytes of stored NDJSON")
	)
	obsAddr, obsStats := cli.ObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	app, err := cli.Boot(*obsAddr, *obsStats, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "cos-serve: %v\n", err)
		return 1
	}
	defer app.Close()

	// The journal is the daemon's single source of operational truth: the
	// serve core writes job lifecycle events into it, the daemon adds its
	// own process-level markers, /events streams it, and the stderr mirror
	// replaces ad-hoc prints (summary frames are mirrored only when a
	// per-event feed would be too chatty anyway — they are not).
	journal := event.New(*journalCap)
	journal.Mirror(stderr, func(ev event.Event) bool {
		return ev.Type != serve.EventSummary
	})

	// Persistence and caching are daemon policy, not core policy: the serve
	// core treats both as opt-in so its determinism tests exercise real
	// recomputation, while the daemon defaults the cache on and enables the
	// durable store whenever -data-dir names a directory.
	var resultCache *cache.Cache
	if *cacheOn {
		resultCache = cache.New(*cacheMax)
	}
	var jobStore *store.Store
	if *dataDir != "" {
		var err error
		jobStore, err = store.Open(*dataDir)
		if err != nil {
			fmt.Fprintf(stderr, "cos-serve: %v\n", err)
			return 1
		}
		defer jobStore.Close()
	}

	srv := serve.New(serve.Config{
		Shards:         *shards,
		QueueDepth:     *queueDepth,
		DefaultTimeout: *timeout,
		Journal:        journal,
		SummaryEvery:   *summary,
		Cache:          resultCache,
		Store:          jobStore,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "cos-serve: %v\n", err)
		return 1
	}
	httpSrv := &http.Server{Handler: servehttp.NewHandler(srv)}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	journal.Append(eventListening, "", listeningEvent{
		Addr: ln.Addr().String(), Shards: *shards, QueueDepth: *queueDepth,
	})
	if notifyReady != nil {
		notifyReady(ln.Addr().String())
	}

	select {
	case err := <-serveErr:
		fmt.Fprintf(stderr, "cos-serve: %v\n", err)
		return 1
	case <-app.Context().Done():
	}

	// Graceful drain: admission stops first, so requests racing the signal
	// see 503 while status and result streams keep working until every job
	// is terminal (or the window expires and the rest are cancelled). The
	// core emits drain_begin/drain_end around this.
	clean := srv.Drain(*drain)
	// The journal is the daemon's, not the server's: append the final exit
	// marker, then close it so /events streams end and Shutdown can finish.
	journal.Append(eventExit, "", exitEvent{Clean: clean})
	journal.Close()
	// Every job is now terminal, so open result streams hit EOF on their
	// own; Shutdown (not Close) lets those final flushes reach the client.
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	httpSrv.Shutdown(shutdownCtx)
	cancel()
	app.Close() // flush the stats logger and release the metrics listener
	return 0
}
