# transparentedge — build, test, and experiment targets.

GO ?= go

.PHONY: all check fmt build vet test race bench-repo fingerprints golden fuzz experiments examples clean

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
# `go test -bench . -run '^$$' ./internal/...` runs the per-layer cost gates
# (among them BenchmarkFlowTableLookup's forward, reverse and unnamed-source
# lookups at 0 allocs/op, whose probe sets TestLookupProbesNamedSignatures
# pins, and BenchmarkKubeletResync, one resync pass over the node's pods at
# 0 allocs/op, whose reads of the node's pod index TestNodeReadsCopyNothing
# pins to copy nothing on the next write).
# The root package's ratchets hold the surfaces, each number only going down:
# TestKernelGoCallSites, TestNodeRunsOnKernel (the node's packages take no
# *sim.Proc beyond the two pull adapters, and kube starts no process),
# TestBlockingConnCallSites, TestSurfaceCounts,
# TestExportsHaveProgramCallers (go/types: every export under internal/ has a
# caller outside the tests, or an allowlisted reason),
# TestSettingsHaveProgramWriters (every exported field under internal/ is
# written by a program, a …Config field from outside its own package) and
# TestFieldsHaveProgramReaders (every exported field of an exported struct
# under internal/ is read by a program). What each gate pins, and its current
# numbers, is in .claude/skills/verify/SKILL.md.

# The repository benchmark (BENCHMARK.json): four workloads, end-to-end
# metrics with tracing off plus the traced per-layer ledger, written to
# bench/out/. The benchmark driver's entry point is `bash bench/run.sh`.
bench-repo:
	$(GO) run ./bench

# Check the benchmark's eight fingerprints (testdata/bench_fingerprints.txt:
# seed, workload, the fingerprint of its first timed rep) and that no request
# failed: one untraced rep of each workload at each seed, a few minutes in
# all, so not part of `check`. A change that claims to leave the simulation
# alone must pass it; a change that moves a fingerprint on purpose updates
# the file.
fingerprints:
	@dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; status=0; \
	while read -r seed workload want; do \
		case "$$seed" in ""|"#"*) continue;; esac; \
		out="$$dir/$$workload-$$seed"; \
		if ! $(GO) run ./bench -reps 1 -trace 0 -seed "$$seed" -workload "$$workload" -out "$$out" >/dev/null; then \
			echo "FAIL seed $$seed $$workload: the benchmark exited with an error"; status=1; continue; fi; \
		got=$$(grep -m1 '"fingerprint"' "$$out/results.json" | sed 's/.*"fingerprint": *"\([0-9a-f]*\)".*/\1/'); \
		failed=$$(grep -m1 '"failed"' "$$out/results.json" | sed 's/.*"failed": *\([0-9]*\).*/\1/'); \
		if [ "$$got" = "$$want" ] && [ "$$failed" = 0 ]; then \
			echo "ok   seed $$seed $$workload $$got"; \
		else \
			echo "FAIL seed $$seed $$workload: fingerprint $$got (want $$want), failed $$failed (want 0)"; status=1; fi; \
	done < testdata/bench_fingerprints.txt; exit $$status

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
