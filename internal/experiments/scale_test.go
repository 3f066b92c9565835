package experiments

import (
	"testing"
	"time"
)

// TestDispatchScaleParallelVsSerial: with parallel state gathering the
// dispatch latency must stay ~flat as clusters grow, while serial grows
// linearly (sum of per-cluster query latencies).
func TestDispatchScaleParallelVsSerial(t *testing.T) {
	const queryLatency = 8 * time.Millisecond // core.DefaultConfig
	// 1 and 16 clusters in parallel, then the serial reference at 16.
	runs := must(dispatchScale(Params{Seed: 1, Clusters: 16}))
	p1, p16, s16 := runs[0], runs[1], runs[2]
	t.Logf("\n%s", runs)

	// Parallel: growing 1 -> 16 clusters must not add even one extra
	// query latency to the dispatch.
	if grow := p16.Dispatch - p1.Dispatch; grow > queryLatency {
		t.Errorf("parallel dispatch grew by %v from 1 to 16 clusters, want < %v", grow, queryLatency)
	}
	// Serial: 16 clusters pay ~16 query latencies.
	if s16.Dispatch < 16*queryLatency {
		t.Errorf("serial dispatch over 16 clusters = %v, want >= %v", s16.Dispatch, 16*queryLatency)
	}
	if s16.Dispatch <= p16.Dispatch {
		t.Errorf("serial (%v) should be slower than parallel (%v)", s16.Dispatch, p16.Dispatch)
	}
}

// TestCookieChurnBounded: peaks track the idle-timeout windows (far below
// the client count) and every map drains to zero.
func TestCookieChurnBounded(t *testing.T) {
	const clients = 2500
	res := must(cookieChurn(Params{Seed: 1, Clients: clients}))
	t.Logf("\n%s", res)
	if res.PeakCookies == 0 || res.PeakMemory == 0 {
		t.Fatal("churn never populated the controller state; run is broken")
	}
	// One request per client, 2ms apart, 500ms switch idle / 2s memory
	// idle: steady-state occupancy is the idle window (~250 cookies,
	// ~1000 memory entries / client locations), not `clients`.
	if res.PeakCookies >= clients/2 {
		t.Errorf("peak cookies = %d, want bounded well below %d clients", res.PeakCookies, clients)
	}
	if res.PeakClientLocs >= clients/2 {
		t.Errorf("peak client locations = %d, want bounded well below %d clients", res.PeakClientLocs, clients)
	}
	if res.FinalCookies != 0 || res.FinalClientLocs != 0 || res.FinalMemory != 0 {
		t.Errorf("final state = %d cookies / %d client locs / %d memory entries, want 0/0/0",
			res.FinalCookies, res.FinalClientLocs, res.FinalMemory)
	}
}
