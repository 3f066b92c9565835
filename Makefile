# transparentedge — build, test, and experiment targets.

GO ?= go

.PHONY: all check fmt build vet test race bench-repo fingerprints golden fuzz experiments examples traffic clean

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

# Which code the programs run: build every program with coverage of the whole
# module, run each one at the golden sizes (edgesim all with -counters
# -attrib, every -json row, the trace/flame/SLO outputs, the seven examples,
# edgectl, tracegen and a small benchmark run), and print each package's
# covered share. Under a minute; a tool for finding code nothing runs, so not
# part of `check`.
SIZES = -seed 42 -scale 0.05 -replay-requests 600 -sweep-requests 200 -sweep-seeds 2
traffic:
	@dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; set -e; \
	mkdir -p "$$dir/cov" "$$dir/bin" "$$dir/out"; \
	for prog in ./cmd/edgesim ./cmd/edgectl ./cmd/tracegen ./bench $$(ls -d ./examples/*/); do \
		$(GO) build -cover -coverpkg=transparentedge/... -o "$$dir/bin/$$(basename $$prog)" $$prog; done; \
	export GOCOVERDIR="$$dir/cov"; b="$$dir/bin"; o="$$dir/out"; \
	$$b/edgesim $(SIZES) -counters -attrib all >/dev/null; \
	$$b/edgesim -json scale-dispatch >/dev/null; \
	$$b/edgesim -json scale-churn >/dev/null; \
	for e in scale-replay scale-shard scale-steer scale-mobility scale-attrib; do \
		$$b/edgesim -seed 42 -replay-requests 600 -json $$e >/dev/null; done; \
	$$b/edgesim -sweep-seeds 2 -sweep-requests 200 -json sweep >/dev/null; \
	$$b/edgesim -sweep-requests 200 -json scale-faults >/dev/null; \
	$$b/edgesim -replay-requests 600 -trace $$o/t.json -flame $$o/f.txt \
		-slo request:p99=1ms -slo-dump $$o/slo.json scale-replay >/dev/null; \
	for ex in $$(ls examples); do $$b/$$ex >/dev/null; done; \
	$$b/edgectl demo -kube -far -trace >/dev/null; \
	$$b/edgectl annotate Nginx >/dev/null; \
	$$b/tracegen >/dev/null; \
	$$b/bench -scale 0.02 -reps 1 -out $$o/bench >/dev/null; \
	$(GO) tool covdata percent -i "$$dir/cov"

clean:
	$(GO) clean -testcache
