package experiments

import (
	"testing"

	"transparentedge/internal/obs"
)

// TestTracedFingerprintParity pins the observability determinism invariant:
// running the exact same variant with tracing and counters enabled must
// produce a bit-identical fingerprint to the uninstrumented run. The obs
// layer records the simulation — it must never perturb it.
func TestTracedFingerprintParity(t *testing.T) {
	base := pointSpec{Seed: 7, Requests: 400, Clusters: 2, Cold: true}

	bare := runVariant(base)
	if bare.Err != nil {
		t.Fatal(bare.Err)
	}

	traced := base
	traced.Trace = obs.NewTracer(0)
	traced.Counters = obs.NewRegistry()
	instrumented := runVariant(traced)
	if instrumented.Err != nil {
		t.Fatal(instrumented.Err)
	}

	if got, want := instrumented.Fingerprint(), bare.Fingerprint(); got != want {
		t.Fatalf("tracing perturbed the simulation: fingerprint %x (traced) vs %x (bare)", got, want)
	}
	if instrumented.Counters == nil || instrumented.Counters["dispatch_packet_ins_total"] == 0 {
		t.Fatalf("instrumented run recorded no counters: %v", instrumented.Counters)
	}
	if traced.Trace.Emitted() == 0 {
		t.Fatal("instrumented run emitted no spans")
	}
	if bare.Counters != nil {
		t.Fatalf("bare run grew a counter snapshot: %v", bare.Counters)
	}
}

// TestReplayScaleSpanCount checks the acceptance invariant for traces: a
// replay emits exactly one "request" root span per replayed request.
func TestReplayScaleSpanCount(t *testing.T) {
	tr := obs.NewTracer(0) // default capacity comfortably covers the trace
	reg := obs.NewRegistry()
	res := must(replayScale(Params{Seed: 11, ReplayRequests: 300, Trace: tr, Counters: reg}))
	if res.Errors != 0 {
		t.Fatalf("%d replay errors", res.Errors)
	}
	if res.RequestSpans != res.Requests {
		t.Fatalf("%d request spans for %d requests", res.RequestSpans, res.Requests)
	}
	if res.Spans < uint64(res.Requests) {
		t.Fatalf("emitted %d spans total, want >= %d", res.Spans, res.Requests)
	}
	if res.Counters["replay_inflight_max"] < 1 {
		t.Fatalf("replay_inflight_max = %v, want >= 1", res.Counters["replay_inflight_max"])
	}
}

// TestReplayScaleResultParity: every deterministic replay output must be
// identical with tracing on.
func TestReplayScaleResultParity(t *testing.T) {
	bare := must(replayScale(Params{Seed: 3, ReplayRequests: 250}))
	traced := must(replayScale(Params{Seed: 3, ReplayRequests: 250, Trace: obs.NewTracer(0), Counters: obs.NewRegistry()}))
	served(t, "bare", bare.pointResult)
	served(t, "traced", traced.pointResult)
	if bare.Requests != traced.Requests || bare.Errors != traced.Errors ||
		bare.Median != traced.Median || bare.P95 != traced.P95 ||
		bare.Deployments != traced.Deployments {
		t.Fatalf("traced replay diverged:\nbare:   req=%d err=%d med=%v p95=%v dep=%d\ntraced: req=%d err=%d med=%v p95=%v dep=%d",
			bare.Requests, bare.Errors, bare.Median, bare.P95, bare.Deployments,
			traced.Requests, traced.Errors, traced.Median, traced.P95, traced.Deployments)
	}
}
