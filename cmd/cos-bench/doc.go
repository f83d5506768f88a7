// Command cos-bench is the repository's benchmark: one seeded program that
// measures the CoS stack end to end and layer by layer, through the public
// API of each layer, and checks every output it gets back.
//
// # Running
//
// From the repository root:
//
//	bash cmd/cos-bench/bench.sh                          # all four workloads, 20 s each
//	bash cmd/cos-bench/bench.sh -workload link-1k -seed 7
//	bash cmd/cos-bench/bench.sh -workload figures -trace 1
//	bash cmd/cos-bench/bench.sh -workload serve-cold -reps 5
//
// bench.sh builds the binary with the Go build cache, temp files, scratch
// data and span files all under .bench_build/, then runs it. The benchmark
// is a module of its own (cmd/cos-bench/go.mod, replacing "cos" with the
// repository root), so `go test ./...` at the root does not run its tests;
// run them with
//
//	go -C cmd/cos-bench test ./...
//	go -C cmd/cos-bench test -race ./...
//
// Flags:
//
//	-workload name   link-1k, serve-cold, serve-warm, figures, or all (default)
//	-seed n          every input is generated from it (default 1)
//	-seconds s       how long each workload measures (default 20)
//	-trace 0|1       1: traced run, per-layer metrics, span file
//	-reps n          fresh-process repetitions; prints median and IQR/median
//	-workdir dir     scratch data and span files (bench.sh: .bench_build)
//	-spans file      span file of a traced run
//
// Each workload runs in a child process of its own, so peak RSS (VmHWM)
// and GC state belong to that workload. The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}. For
// one workload and one rep, metrics holds every end-to-end metric (or,
// traced, every per-layer metric) by name with its unit; with several,
// the medians keyed "<workload>.<metric>". A run whose checks fail prints
// correct false and exits 1. The first line records the seed, nproc,
// GOMAXPROCS, the Go version and the commit.
//
// Every input comes from -seed: the same seed gives byte-identical spec
// lists, arrival schedules and payloads, so both commits of an A/B see the
// same traffic. The program under test receives only generated inputs.
// Load comes from this one process, with at most two busy goroutines or
// connections driving it (the host has two CPUs).
//
// # Workloads
//
// link-1k: one cos.Link (position B, static channel, 20 dB). 20 warm-up
// exchanges at set-up, then closed-loop exchanges of seeded 1024-byte
// payloads, each with up to 24 seeded control bits cut to the adaptive
// budget. Why: the library user's path; the Viterbi/EVD decode is about
// 80-90% of its time.
//
// serve-cold: an in-process serve.Server with cos-serve's defaults (2
// shards, queue 16, journal with 1 s summaries, 256 MiB cache, durable
// store in a scratch directory). Every spec is distinct, so nothing hits
// the cache. Phase A (the first half of the run) is open loop: Poisson
// arrivals at 10 jobs/s, about half the shards' capacity, with the count
// fixed at rate times duration. Phase B (the second half) is closed loop:
// two submitters back to back. The mix is dealt from a shuffled deck of
// ten: 4 link (50 packets, 100 or 256 B, 10-24 dB, position A/B/C, 30%
// mobile, 8/16/32 control bits), 2 stream (5 sends), 2 wlan (3 stations,
// 20 rounds), 2 figure_task (fig3, scale 0.1), and each kind's parameters
// from shuffled decks of their own, so every seed sends nearly the same
// multiset of job sizes in its own order. Why: the daemon's compute
// path, the write side of cache and store, the 6-48 Mb/s modes and so all
// three code rates, and queueing behind round-robin shard admission.
//
// serve-warm: the same daemon behind a loopback HTTP server. Set-up
// computes 64 seeded specs of the same mix. Then two closed-loop clients
// on plain net/http (two keep-alive connections) repeat POST /jobs and
// GET /jobs/{id}/result for random specs of the set. Why: the read side;
// admission, cache hits, the HTTP edge and NDJSON streaming with zero
// simulation, so a kernel speed-up must predict no change here. The
// server keeps every job, and each cache hit's job holds a copy of its
// body, so memory grows with every request: the run makes 20000 requests
// (about 200 MB), in ten closed-loop bursts of 2000, one at the start of
// each tenth of the run, so they sample the same window of the host's
// speed as the other workloads. ops_per_s divides by the bursts' time.
//
// figures: fig3 at scale 0.5 (12 point-tasks), one seed per 6 s of the
// run (3 at 20 s). Each seed is regenerated locally with
// experiments.Run (2 workers) and through fleet.New over two fleet.Host
// backends, each an httptest server with one shard and its own cache,
// alternating which goes first; then the first seed once more through the
// fleet. Why: the researcher's cos-figures path, local and -fleet; a
// figure waits for its slowest task, so dispatch and poll overheads and
// stragglers show here.
//
// # End-to-end metrics
//
// Every workload reports all four; "op" is an exchange (link-1k), a job
// (serve-cold, serve-warm) or a figure regeneration (figures). The bound
// is the share of the parent's median by which a change may worsen the
// metric before it counts as a regression.
//
//	name            unit  better  bound  meaning
//	setup_s         s     lower   0.25   median of 3 set-ups (serve-warm: includes computing the 64 specs)
//	peak_rss_mb     MB    lower   0.25   VmHWM of the workload's process
//	ops_per_s       1/s   higher  0.25   third quartile of closed-loop ops per second over slices of the run
//	latency_p25_ms  ms    lower   0.25   first quartile of the op latencies (see below)
//
// Latency is timed as a user sees it. link-1k: one Link.Send. serve-cold:
// from each phase-A job's scheduled send time to its FinishedAt, so a
// stall counts against the jobs queued behind it. serve-warm: from the
// POST to the last result byte. figures: one regeneration, local or fleet.
//
// Throughput is taken over ten equal slices of the closed-loop phase
// (serve-cold: phase B; serve-warm: each burst; figures: each
// regeneration), and the result carries their third quartile.
//
// The bounded latency is the first quartile, not the median. On the shared
// 2-vCPU host the bounds were set on, neighbours' cache contention slows
// the Viterbi-heavy paths by up to 40% in bursts of seconds to minutes, so
// an exchange's latency is bimodal and its median jumps between the modes
// from run to run (IQR/median 0.49 over ten seeds for link-1k), while the
// first quartile stays on the fast mode; the third quartile of the
// slices' throughput does the same for ops_per_s. The lines above the
// result print the whole-run throughput, the median and the tails for
// every workload (exchange_p99_ms, the open-loop job_p90_ms, the warm
// job_p99_ms), figure_s and figure_local_s, and the data and control
// delivery rates. A percentile is printed only when at least 10 samples
// lie beyond it; a run that cannot measure a metric it promises fails
// rather than printing a shorter line.
//
// Failures are not a metric: a rejected, failed or wrong operation counts
// in "failed", and any failure makes the run exit non-zero.
//
// # Output checks
//
// link-1k: whenever DataOK, the decoded payload equals the sent one;
// ControlSent equals the bits sent; ControlOK agrees with a prefix
// comparison of ControlReceived. serve-cold: every job ends done, every
// NDJSON body parses, and its summary record matches the tallies of its
// own records. serve-warm: every submission is a 200 with X-Cos-Cache: hit
// and every result is byte-identical to the body computed at set-up.
// figures: the fleet's figure (CSV, plot, notes) is byte-identical to the
// local one for every seed, and the repeat equals the first fleet pass.
// Traced runs also check the kernels' outputs and that the traced and
// untraced links of link-1k never diverge.
//
// # Traced runs and per-layer metrics
//
// -trace 1 records spans around each call into a layer's public API:
// name, start, end, parent, request id. Link.Send's seven stages are
// reconstructed from Exchange.StageNS, laid end to end in execution order,
// and a serve job's queue and run phases from its Status timestamps.
// Spans stay in memory and are written once, as JSON lines, when the run
// ends. A layer's self time is its span's duration minus the union of its
// children's intervals.
//
// A traced run reports every per-layer metric. The named workload measures
// the layers it drives; each other workload then runs at smoke size (1-5
// seconds each) so its layers report too, and a kernel phase times the
// simulation kernels on seeded inputs. In a traced link-1k run two
// identical links take turns, ten exchanges each, on the same inputs, one
// traced and one not: bench.trace_overhead_frac is their measured time
// ratio minus one. The traced run prints its own end-to-end numbers too.
//
// Each group says which end-to-end metric it should move, on which
// workload:
//
//	kernels (us or ns per call): coding.viterbi_1kb_us, coding.viterbi_ns_per_state_step
//	  (1 KB of soft metrics, 5% zero-metric erasures), phy.tx_chain_1kb_us,
//	  phy.rx_chain_1kb_us, dsp.fft64_ns, modulation.softdemap64_ns, channel.tdl_apply_us.
//	  The Viterbi decode moves ops_per_s and latency_p25_ms on link-1k, serve-cold and
//	  figures, and nothing on serve-warm; the rest are under 10% of an exchange.
//	cos (link-1k): cos.stage.<tx_encode|channel|rx_frontend|detect|control_decode|
//	  evd_decode|feedback>_us (means per exchange), cos.send_self_us (Send time no stage
//	  covers) move ops_per_s and latency_p25_ms. cos.allocs_per_exchange and
//	  cos.bytes_per_exchange move the tail through GC. cos.silences_per_exchange,
//	  cos.control_bits_per_exchange, cos.data_ok_rate and cos.control_ok_rate are exact
//	  for a seed: they guard the free-control claim.
//	serve, store (serve-cold): serve.submit_us (Server.Submit, which fsyncs the WAL)
//	  moves latency_p25_ms; serve.queue_wait_ms_p50/_p95 (StartedAt-SubmittedAt) and
//	  serve.shard_busy_frac (phase A) move the open-loop latency;
//	  serve.run_ms.<link|stream|wlan|figure_task> (FinishedAt-StartedAt) moves
//	  latency_p25_ms and ops_per_s; serve.rejected_frac moves failed;
//	  store.bytes_per_job (growth of the data directory) moves latency_p25_ms;
//	  bench.gen_late_p90_ms is how late the open-loop generator ran.
//	cache, http (serve-warm): cache.hit_ratio (1 here), serve.result_bytes_per_job,
//	  http.submit_us and http.result_us (round trips) move latency_p25_ms and
//	  ops_per_s; http.conns_opened (dials, 2 expected) moves the tail.
//	fleet (figures): fleet.figure_s and experiments.figure_local_s (medians);
//	  fleet.backend_run_ms (each Backend.Run, timed by a wrapper) and
//	  fleet.dispatch_overhead_ms (that minus the job's SubmittedAt-FinishedAt on the
//	  backend, which includes the client's 50 ms Wait poll), fleet.backend_busy_frac_min
//	  and fleet.tail_idle_s (first backend idle for good to figure done) move
//	  latency_p25_ms and ops_per_s; fleet.retries and fleet.failovers (coordinator
//	  journal, 0 expected) move failed. fleet.repeat_hit_ratio moves nothing end to
//	  end: which backend's cache is asked is a routing decision; it is recorded so a
//	  cache-affinity change can first add a workload that makes it end to end.
//	runtime (the named workload's measured window): runtime.gc_cycles,
//	  runtime.gc_pause_ms and runtime.allocs_per_op move the tails.
//
// # Stability and bounds
//
// -reps N runs each workload N times in fresh processes and prints each
// metric's median and IQR/median. The bounds come from passes of ten
// runs per workload, each run on its own seed, on the 2-vCPU host the
// benchmark was written on. In quiet passes the IQR/median of the timing
// metrics stayed at or under about 0.2 (link-1k 0.05-0.09, serve-cold
// 0.08-0.26, serve-warm 0.09-0.13, figures 0.09-0.23) and of peak_rss_mb
// under 0.22. In a pass during which the host ran every workload 1.7-2x
// slower for a few minutes, the timing spreads reached 0.3-0.7: no
// statistic taken inside a 20 s run removes that. So every bound is 0.25,
// the largest BENCHMARK.json allows; setup_s, which is short and there to
// catch work moved out of the measured window, shares it.
//
// # Comparing two commits
//
// Build both binaries outside the repository, one per commit, each from
// its own checkout (bench.sh leaves the binary in .bench_build/cos-bench).
// Then alternate them, at least ten pairs on the same seed, switching which
// goes first, and repeat the comparison on one seed not used while the
// change was written:
//
//	for i in $(seq 10); do
//	  order="a b"; [ $((i % 2)) = 0 ] && order="b a"
//	  for side in $order; do
//	    $side/.bench_build/cos-bench -workdir /tmp/ab -workload link-1k -seed 11 | tail -1
//	  done
//	done
//
// Claim a gain only when the change wins at least nine pairs in ten and
// the medians differ by more than the parent's own IQR; report every other
// workload and metric against its bound.
package main
