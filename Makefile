# Standard entry points; everything is plain `go` underneath.

GO ?= go

.PHONY: all build vet test test-short race ci bench bench-parallel bench-trace bench-pipeline bench-serve bench-events bench-cache bench-jobtrace bench-scenario bench-fleet figures figures-quick fuzz cover clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

# The pre-merge gate: compile, vet, formatting, quick tests, the pipeline
# refactor's byte-equality + steady-state alloc guards, the node wiring
# under the race detector, and the parallel engine's determinism/
# cancellation tests and the executor seam every figure crosses under the
# race detector (the parallel tests exercise workers 2, 4 and 7
# internally), plus the serve daemon's drain and
# cancellation paths under the race detector (signal-vs-submit,
# drain-window expiry, and client cancellation all race by design), and
# the durable store's WAL replay + cache recovery paths under the race
# detector (WAL appends race admission and completion by design), and the
# flight-recorder trace paths (capture determinism, cache reuse, restart
# durability, HTTP round trip) under the race detector, and the scenario
# registry's serve path (by-name jobs end-to-end, typed rejection,
# /scenarios listing) plus a reduced-scale scenario head-to-head bench,
# both under the race detector, and the fleet coordinator's failover /
# mid-run-growth / byte-identity paths under the race detector (workers,
# kill, and add-backend race the dispatch queue by design).
ci: build vet
	@fmtout=$$(gofmt -l .); if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; fi
	$(GO) test -short ./...
	$(GO) test -run 'TestPipelineGolden|TestScenarioLinkGoldens|TestLinkSendSteadyStateAllocs|TestStandaloneNodesMatchLink' .
	$(GO) test -race -run 'TestPipelineNodesRace|TestStandaloneNodesMatchLink' .
	$(GO) test -race -run 'TestParallelMatchesSerial|TestRunnerCancellation|TestExecutorPathMatchesLocal' ./internal/experiments/
	$(GO) test -race -run 'TestServerDrain|TestServerDrainCancelsSlowJobs|TestJobCancel|TestDeterministicNDJSON' ./internal/serve/
	$(GO) test -race -run 'TestSIGTERMDrainsGracefully|TestRestartServesDurableResults' ./cmd/cos-serve/
	$(GO) test -race ./internal/serve/store/ ./internal/serve/cache/
	$(GO) test -race -run 'TestCacheHit|TestStoreRecovery|TestFailedJobsSettle' ./internal/serve/
	$(GO) test -race -run 'TestSlowSubscriberNeverBlocksProducer|TestJournalFanoutConcurrency' ./internal/obs/event/
	$(GO) test -race -run 'TestEventsSlowConsumerGap|TestEventsFollowStreamsLive|TestEventsResumeAfterEviction|TestJobLifecycleEvents' ./internal/serve/ ./internal/serve/http/
	$(GO) test -race -run 'TestTracedJobsByteIdentical|TestTraceCacheReuse|TestTraceSurvivesRestart|TestTraceRoundTrip' ./internal/serve/ ./internal/serve/http/
	$(GO) test -race -run 'TestScenarioJobsEndToEnd|TestSubmitUnknownScenario|TestScenariosEndpoint' ./internal/serve/http/
	$(GO) test -race -run TestWriteBenchScenarioReport -bench-scenario-out /tmp/BENCH_scenario.ci.json -bench-scenario-packets 40 .
	$(GO) test -race ./internal/fleet/

bench:
	$(GO) test -bench=. -benchmem

# Regenerate BENCH_parallel.json: times each figure serially (workers=1)
# and at GOMAXPROCS workers, asserts the outputs are byte-identical, and
# records the speedup. Fully deterministic apart from the wall-clock
# timings themselves.
bench-parallel:
	$(GO) test -run TestWriteBenchParallelReport -bench-parallel-out BENCH_parallel.json -v .

# Regenerate BENCH_trace.json: times the exchange loop span-only, with a
# probe every 64th packet, and with a probe every packet, and checks the
# sampled-probe overhead stays within the 2% budget.
bench-trace:
	$(GO) test -run TestWriteBenchTraceReport -bench-trace-out BENCH_trace.json -v .

# Regenerate BENCH_pipeline.json: measures a steady-state Link.Send
# (ns/op, B/op, allocs/op) on the staged node pipeline and compares it to
# the frozen pre-split baseline re-measured on the same container.
bench-pipeline:
	$(GO) test -run TestWriteBenchPipelineReport -bench-pipeline-out BENCH_pipeline.json -v .

# Regenerate BENCH_serve.json: saturates a GOMAXPROCS-sharded cos-serve
# pool with small link jobs for a fixed window (resubmitting on 429) and
# records sustained jobs/sec plus p50/p99 job latency from the server's
# own status timestamps.
bench-serve:
	$(GO) test -v ./internal/serve/ -run TestWriteBenchServeReport -bench-serve-out $(CURDIR)/BENCH_serve.json

# Regenerate BENCH_events.json: costs the operations plane at three levels
# (raw journal append, per-exchange stage observer on a bare link, serve
# throughput with the journal on vs off) and enforces the ~2% overhead
# budget on the serve path.
bench-events:
	$(GO) test -v -timeout 20m ./internal/serve/ -run TestWriteBenchEventsReport -bench-events-out $(CURDIR)/BENCH_events.json

# Regenerate BENCH_cache.json: runs N distinct link specs cold, resubmits
# them warm against the content-addressed result cache, asserts every warm
# stream is byte-identical to its cold run, and enforces the >= 10x
# warm/cold jobs-per-second acceptance bar.
bench-cache:
	$(GO) test -v ./internal/serve/ -run TestWriteBenchCacheReport -bench-cache-out $(CURDIR)/BENCH_cache.json

# Regenerate BENCH_jobtrace.json: saturates the shard pool with distinct
# link jobs untraced, traced event-only, and traced with a probe every 8th
# packet (best of 3 each); records jobs/sec and run p99 per mode, uses the
# untraced run-to-run spread as the noise floor for the ~0% untraced
# overhead claim, and re-runs the probed pass to assert byte-identical
# capture.
bench-jobtrace:
	$(GO) test -v -timeout 20m ./internal/serve/ -run TestWriteBenchJobtraceReport -bench-jobtrace-out $(CURDIR)/BENCH_jobtrace.json

# Regenerate BENCH_scenario.json: drives the same fixed-seed send schedule
# through the default CoS-silence/indoor-TDL world, the OFDM-padding
# embedding on the same channel, and the hybrid BSC/PEC outdoor channel
# under CoS silence (preset + harsher operating point), recording packet
# delivery, control accuracy, silence spend, and throughput per world.
bench-scenario:
	$(GO) test -run TestWriteBenchScenarioReport -bench-scenario-out $(CURDIR)/BENCH_scenario.json -v .

# Regenerate BENCH_fleet.json: dispatches the same distinct link specs
# through fleet coordinators over 1, 2, and 4 in-process cos-serve
# backends, asserts every topology's assembly is byte-identical to the
# single-backend run, and records jobs/sec plus the 2x/4x scaling ratios
# (with an honest single-CPU methodology note when GOMAXPROCS=1).
bench-fleet:
	$(GO) test -v ./internal/fleet/ -run TestWriteBenchFleetReport -bench-fleet-out $(CURDIR)/BENCH_fleet.json

# Publication-quality data for every paper figure and ablation (~10 min).
figures:
	$(GO) run ./cmd/cos-figures -fig all -scale 1 -out results/

figures-quick:
	$(GO) run ./cmd/cos-figures -fig all -scale 0.1 -out results/

fuzz:
	$(GO) test ./internal/cos/ -run xxx -fuzz FuzzParseControl -fuzztime 30s
	$(GO) test ./internal/cos/ -run xxx -fuzz FuzzIntervalRoundTrip -fuzztime 30s
	$(GO) test ./internal/scenario/ -run xxx -fuzz FuzzParseRef -fuzztime 30s
	$(GO) test ./internal/serve/ -run xxx -fuzz FuzzDecodeSpec -fuzztime 30s

cover:
	$(GO) test -cover ./...

clean:
	rm -rf results/
