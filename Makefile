# transparentedge — build, test, and experiment targets.

GO ?= go

.PHONY: all check fmt build vet test race bench-repo golden fuzz experiments examples clean

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

# Performance numbers come from the repository benchmark below
# (`make bench-repo`); the paper's figure tables come from `edgesim`
# (`make experiments`) and are pinned by `make golden`'s files.
# `go test -bench . -run '^$$' ./internal/...` runs the per-layer cost
# gates: internal/openflow's BenchmarkAddFlow (at1k/at10k, within-3x),
# internal/kube's BenchmarkEnsureDeployed (at1/at500, within-2x),
# internal/simnet's BenchmarkLinkContention (at1/at1024, within-4x of the
# fair-share arithmetic), internal/simnet's BenchmarkHTTPExchange (one warm
# HTTPGetAsync <-> ServeHTTPAsync exchange with RespondAfter and a deadline
# over one link, at 0 allocs/op; TestAllocsHTTPExchange pins it), internal/sim's BenchmarkKernelSparseSweep
# (gap1/gap200, within-2x), internal/sim's BenchmarkShardWindow (ns per
# window of a two-kernel group with one event per kernel: the shard
# barrier's cost) and internal/sim's BenchmarkKernelAtBatch (a 100k-event
# arrival schedule staged and drained: B/op is the fresh kernel's wheel
# arena, ~0.2 MB whatever the schedule's length, at under 10 allocs/op;
# TestAtBatchMemoryIsConstant pins the staging side) and internal/sim's
# BenchmarkWheelChurn (2000 idle timers re-armed a second ahead, one virtual
# millisecond per op: retained-B, the slot and pool bytes the wheel holds
# beyond its arena, stays flat as -benchtime grows, at 0 allocs/op;
# TestWheelRetainsPeakNotHistory pins the bound) and internal/core's
# BenchmarkDispatchChurn (one packet-in that misses the FlowMemory,
# dispatched to a running instance, its redirect pair installed, idled out
# and reported back by flow-removed: 2 allocs/op, the dispatch process's
# Proc and wake thunk; TestAllocsControllerPacketIn pins it). The sim
# continuation form has two gates of its own: internal/sim's
# TestContMatchesProc (a sim.Cont and a Proc run the same random script of
# sleeps, charges, re-armed timers and channel receives: every step at the
# same instant, in the same event, after the same sequence numbers) and
# TestAllocsContCycle (a warm cycle through every wait, at 0 allocs). The
# root package's go/parser ratchets hold the surfaces, each number only going
# down: TestKernelGoCallSites (11 Kernel.Go sites under internal/),
# TestBlockingConnCallSites (no Dial/Listen/Recv taking a *sim.Proc; HTTPGet
# callers by file) and TestSurfaceCounts (core.Config 18 fields,
# testbed.Options 24, *kube.APIServer 9 exported methods).

# The repository benchmark (BENCHMARK.json): four workloads, end-to-end
# metrics with tracing off plus the traced per-layer ledger, written to
# bench/out/. The benchmark driver's entry point is `bash bench/run.sh`.
bench-repo:
	$(GO) run ./bench

# Rewrite cmd/edgesim/testdata/golden from the current CLI output (every
# experiment in text mode, every -json-capable one in JSON mode, small
# sizes). Review the diff: TestGoldenOutputs compares byte for byte.
golden:
	$(GO) test ./cmd/edgesim -run TestGoldenOutputs -update

# Fuzz the YAML parser, the flow table against its brute-force reference
# (the step interpreter of TestFlowTableMatchesBruteForce driven from
# bytes), edgesim's -fault-rates parser, the trace CSV reader and the -slo
# list parser, a minute each.
fuzz:
	$(GO) test -fuzz FuzzDecode -fuzztime 60s ./internal/yaml/
	$(GO) test -fuzz FuzzFlowTable -fuzztime 60s ./internal/openflow/
	$(GO) test -fuzz FuzzParseRates -fuzztime 60s ./cmd/edgesim/
	$(GO) test -fuzz FuzzParseCSV -fuzztime 60s ./internal/workload/
	$(GO) test -fuzz FuzzParseSLOs -fuzztime 60s ./internal/obs/attrib/

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
