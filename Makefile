# Standard entry points; everything is plain `go` underneath.

GO ?= go

.PHONY: all build vet test test-short race ci bench bench-trace bench-events bench-fleet figures figures-quick fuzz cover clean

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

# The pre-merge gate. Every short test runs under the race detector, so a
# new test is raced without a new line here. The full suite then runs
# without -race, which covers every test that skips under -short (goldens,
# the metrics end-to-end session, cos-serve subprocesses) with no list to
# keep current, and the cos-serve daemon tests run once more under -race.
# cmd/cos-bench, a module of its own that ./... does not enter, gets lines
# of its own.
ci: build vet
	@fmtout=$$(gofmt -l .); if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; fi
	$(GO) test -race -short ./...
	$(GO) test ./...
	$(GO) test -race ./cmd/cos-serve/
	$(GO) -C cmd/cos-bench vet ./...
	$(GO) -C cmd/cos-bench test -short ./...

bench:
	$(GO) test -bench=. -benchmem

# Regenerate BENCH_trace.json: times the exchange loop with the stage
# clock alone, with a probe every 64th packet, and with a probe every
# packet, and checks the sampled-probe overhead stays within the 2% budget.
bench-trace:
	$(GO) test -run TestWriteBenchTraceReport -bench-trace-out BENCH_trace.json -v .

# Regenerate BENCH_events.json: costs the operations plane at three levels
# (raw journal append, per-exchange stage observer on a bare link, serve
# throughput with the journal on vs off) and enforces the ~2% overhead
# budget on the serve path.
bench-events:
	$(GO) test -v -timeout 20m ./internal/serve/ -run TestWriteBenchEventsReport -bench-events-out $(CURDIR)/BENCH_events.json

# Regenerate BENCH_fleet.json: dispatches the same distinct link specs
# through fleet coordinators over 1, 2, and 4 in-process cos-serve
# backends, asserts every topology's assembly is byte-identical to the
# single-backend run, and records jobs/sec plus the 2x/4x scaling ratios
# (with an honest single-CPU methodology note when GOMAXPROCS=1).
bench-fleet:
	$(GO) test -v ./internal/fleet/ -run TestWriteBenchFleetReport -bench-fleet-out $(CURDIR)/BENCH_fleet.json

# Publication-quality data for every paper figure and ablation (~75 s on 2 vCPUs).
figures:
	$(GO) run ./cmd/cos-figures -fig all -scale 1 -out results/

figures-quick:
	$(GO) run ./cmd/cos-figures -fig all -scale 0.1 -out results/

fuzz:
	$(GO) test ./internal/cos/ -run xxx -fuzz FuzzParseControl -fuzztime 30s
	$(GO) test ./internal/cos/ -run xxx -fuzz FuzzIntervalRoundTrip -fuzztime 30s
	$(GO) test ./internal/scenario/ -run xxx -fuzz FuzzParseRef -fuzztime 30s
	$(GO) test ./internal/serve/ -run xxx -fuzz FuzzDecodeSpec -fuzztime 30s
	$(GO) test ./internal/serve/client/ -run xxx -fuzz FuzzDecodeEnvelope -fuzztime 30s
	$(GO) test ./internal/serve/store/ -run xxx -fuzz FuzzReplay -fuzztime 30s
	$(GO) test ./internal/trace/ -run xxx -fuzz FuzzReadTrace -fuzztime 30s
	$(GO) test ./internal/coding/ -run xxx -fuzz FuzzViterbiMatchesReference -fuzztime 30s
	$(GO) test ./internal/fleet/ -run xxx -fuzz FuzzTaskRecords -fuzztime 30s

cover:
	$(GO) test -cover ./...

clean:
	rm -rf results/
