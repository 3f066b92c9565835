# transparentedge — build, test, and experiment targets.

GO ?= go

.PHONY: all check fmt build vet test race bench bench-10m bench-compare bench-repo fuzz experiments examples clean

all: check

# The full pre-merge gate: formatting, compile, static analysis, tests, and
# the whole suite again under the race detector (the sweep worker pool, the
# shard-group window workers and the cross-shard fabric are the concurrent
# parts; every parity and fingerprint gate runs in both passes).
check: fmt build vet test race

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Regenerate every table and figure of the paper (plus ablations) and the
# scale benchmarks, recording machine-readable results. The replay-engine
# sweep (10k/100k/1M requests) lands in BENCH_replay.json; the parallel
# sweep engine (serial vs parallel wall time, speedup, allocs) in
# BENCH_sweep.json; everything else in BENCH_all.json — the per-layer units
# with a cost gate among them: internal/openflow's BenchmarkAddFlow
# (at1k/at10k, within-3x), internal/kube's BenchmarkEnsureDeployed
# (at1/at500, within-2x), internal/simnet's BenchmarkLinkContention
# (at1/at1024, within-4x of the fair-share arithmetic) and internal/sim's
# BenchmarkKernelSparseSweep (gap1/gap200, within-2x), all picked up by
# `-bench . ./...`.
bench:
	$(GO) test -json -bench 'BenchmarkReplayScale|BenchmarkReplayShard$$' -benchmem -benchtime 1x -run '^$$' . > BENCH_replay.json
	$(GO) test -json -bench 'BenchmarkSweep' -benchmem -benchtime 1x -run '^$$' . > BENCH_sweep.json
	$(GO) test -json -bench 'BenchmarkObsOverhead' -benchmem -benchtime 1x -run '^$$' . > BENCH_obs.json
	$(GO) test -json -bench 'BenchmarkSteerBackends' -benchmem -benchtime 1x -run '^$$' . > BENCH_steer.json
	$(GO) test -json -bench 'BenchmarkAttribOverhead' -benchmem -benchtime 1x -run '^$$' . > BENCH_attrib.json
	$(GO) test -json -bench . -benchmem -run '^$$' ./... > BENCH_all.json
	$(GO) run ./cmd/edgesim -json scale-faults > BENCH_faults.json
	$(GO) run ./cmd/edgesim -json scale-mobility > BENCH_mobility.json

# Opt-in paper-scale gate: the 10M-request sharded replay (multi-minute on
# small machines; on >= 8 cores it should land near the serial engine's 1M
# wall time). Appends to BENCH_replay.json.
bench-10m:
	$(GO) test -json -bench 'BenchmarkReplayShard_10M' -benchmem -benchtime 1x -run '^$$' . >> BENCH_replay.json

# Re-run the replay benchmarks on HEAD and diff them against the stored
# baseline (BENCH_replay.json). Uses benchstat when it is on PATH;
# otherwise falls back to the in-repo comparer, which reads both the
# stored -json stream and plain bench text directly.
bench-compare:
	$(GO) test -bench 'BenchmarkReplayScale' -benchmem -benchtime 1x -run '^$$' . > /tmp/bench_head.txt
	@if command -v benchstat >/dev/null 2>&1; then \
		$(GO) run ./tools/benchcompare -totext BENCH_replay.json > /tmp/bench_base.txt; \
		benchstat /tmp/bench_base.txt /tmp/bench_head.txt; \
	else \
		$(GO) run ./tools/benchcompare BENCH_replay.json /tmp/bench_head.txt; \
	fi

# The repository benchmark (BENCHMARK.json): four workloads, end-to-end
# metrics with tracing off plus the traced per-layer ledger, written to
# bench/out/. The benchmark driver's entry point is `bash bench/run.sh`.
bench-repo:
	$(GO) run ./bench

# Fuzz the YAML parser, then the flow table against its brute-force
# reference (the step interpreter of TestFlowTableMatchesBruteForce driven
# from bytes), a minute each.
fuzz:
	$(GO) test -fuzz FuzzDecode -fuzztime 60s ./internal/yaml/
	$(GO) test -fuzz FuzzFlowTable -fuzztime 60s ./internal/openflow/

# Print all experiments via the CLI.
experiments:
	$(GO) run ./cmd/edgesim all

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/videoanalytics
	$(GO) run ./examples/multiservice
	$(GO) run ./examples/hybrid
	$(GO) run ./examples/tracereplay
	$(GO) run ./examples/mobility
	$(GO) run ./examples/serverless

clean:
	$(GO) clean -testcache
