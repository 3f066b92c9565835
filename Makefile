# transparentedge — build, test, and experiment targets.

GO ?= go

.PHONY: all check fmt build vet test race race-hot race-faults race-obs race-shard race-steer race-mobility race-attrib bench bench-10m bench-compare bench-repo fuzz experiments examples clean

all: check

# The full pre-merge gate: formatting, compile, static analysis, tests,
# race detector (everywhere, plus focused passes over the sweep engine's
# worker-pool code, the sim kernel it drives, the fault-injection
# sweep with its serial-vs-parallel fingerprint parity check, the
# observability layer's zero-overhead/determinism invariants, the
# sharded kernel's cross-shard fingerprint parity, the steering
# backends' cross-backend parity and table-pressure accounting, the
# mobility/handover path's gap accounting and shard parity, and the
# latency-attribution engine's exact-decomposition and parity gates).
check: fmt build vet test race race-hot race-faults race-obs race-shard race-steer race-mobility race-attrib

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

# Focused race pass over the parallel-sweep worker pool and the kernel.
race-hot:
	$(GO) test -race -count 1 ./internal/experiments ./internal/sim

# Fault-sweep smoke test under the race detector, including the
# same-fault-seed fingerprint parity check (serial vs parallel).
race-faults:
	$(GO) test -race -count 1 -run 'TestFaultSweep|TestFaultSeedFingerprintParity' ./internal/experiments

# Observability gate: nil obs handles must be allocation-free on the hot
# path, and enabling tracing/counters must leave every deterministic
# output (sweep fingerprint, replay results) bit-identical.
race-obs:
	$(GO) test -race -count 1 -run 'TestNilHandlesAllocFree|TestEnabledCounterAllocFree' ./internal/obs
	$(GO) test -race -count 1 -run 'TestTracedFingerprintParity|TestReplayScaleResultParity|TestReplayScaleSpanCount' ./internal/experiments

# Sharded-kernel gate under the race detector: shard-group window workers,
# the cross-shard fabric, and the serial-vs-sharded replay fingerprint
# parity checks (including traced and fault-injected runs).
race-shard:
	$(GO) test -race -count 1 -run 'TestShardGroup|TestFabric' ./internal/sim ./internal/simnet
	$(GO) test -race -count 1 -run 'TestReplayShard' ./internal/experiments

# Steering-backend gate under the race detector: openflow-vs-srsteer
# decision/outcome parity on the fig. 9 trace, the sweep's O(1)-vs-O(n)
# table-pressure shape with its per-backend fingerprint gates, the switch's
# pressure accounting, and the stateless encap path's zero-alloc pin.
race-steer:
	$(GO) test -race -count 1 -run 'TestSteer' ./internal/experiments
	$(GO) test -race -count 1 -run 'TestTablePressure' ./internal/openflow
	$(GO) test -race -count 1 ./internal/srsteer

# Mobility gate under the race detector: the handover-path correctness
# tests (mid-dispatch handover, remnant-pair re-anchor, severed-link drop
# semantics), the mobility sweep's backend comparison, and its sharded
# fingerprint parity at every shard count.
race-mobility:
	$(GO) test -race -count 1 -run 'TestHandover|TestStatelessHandover|TestClientMobility' ./internal/core
	$(GO) test -race -count 1 -run 'TestReAnchor|TestReverseNotification' ./internal/steer
	$(GO) test -race -count 1 -run 'TestDetach|TestSevered' ./internal/simnet
	$(GO) test -race -count 1 -run 'TestGenerateHandovers' ./internal/workload
	$(GO) test -race -count 1 -run 'TestMobility' ./internal/experiments

# Latency-attribution gate under the race detector: the collector's own
# suite (exact exclusive-time decomposition, critical-path selection,
# flame/pprof export determinism, SLO flight recording, the nil-collector
# zero-alloc pin), plus the experiment-level gates — the per-phase sum
# property across the replay / fault-plan / mobility workloads and the
# attribution-on/off fingerprint parity at every shard count.
race-attrib:
	$(GO) test -race -count 1 ./internal/obs/attrib
	$(GO) test -race -count 1 -run 'TestAttrib|TestWithAttrib|TestKernelStats' ./internal/experiments

# Regenerate every table and figure of the paper (plus ablations) and the
# scale benchmarks, recording machine-readable results. The replay-engine
# sweep (10k/100k/1M requests) lands in BENCH_replay.json; the parallel
# sweep engine (serial vs parallel wall time, speedup, allocs) in
# BENCH_sweep.json; everything else in BENCH_all.json — the per-layer units
# with a cost gate among them: internal/openflow's BenchmarkAddFlow
# (at1k/at10k, within-3x) and internal/kube's BenchmarkEnsureDeployed
# (at1/at500, within-2x), both picked up by `-bench . ./...`.
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
