package transparentedge_test

import (
	"testing"
	"time"

	"transparentedge/internal/catalog"
	"transparentedge/internal/experiments"
	"transparentedge/internal/testbed"
	"transparentedge/internal/workload"
)

// TestReplayAllocsPerRequestRegression pins the replay engine's
// steady-state allocation rate (DESIGN.md §15). It is measured with
// testing.AllocsPerRun at two trace sizes: the delta between the larger and
// the smaller replay cancels the per-run fixed cost (testbed construction,
// trace generation, the warm-up deployments) and leaves the steady-state
// path. The simulation is deterministic per seed, so the count is stable — a
// failure here means a new allocation crept onto the path.
//
// The data-path entries stay below one per request: a warm request recycles
// its in-flight record, HTTP call, connections and server connection, and
// what remains is the odd packet-in and free lists growing to the peak in
// flight. They cover both entry points: the single-site replay and the
// sharded one on a single kernel (the same engine staged once per region, so
// the same bound). The sharded pair is four times larger because its trace
// spreads over eight times the clients: below 8k requests a client's gap
// between requests outlasts the switch idle timeout and every request pays a
// packet-in, which is control-path cost, not the steady state.
//
// The control-path entry is the flow-churn shape: 2 000 clients, a 1 s switch
// and a 5 s FlowMemory idle timeout, a one-minute window. Nearly every request
// punts at these sizes, and most of those are full dispatches; rules, cookie
// groups, memorized entries and dispatch records recycle, and what a request
// still pays is mostly the dispatch process (its Proc and wake thunk). It
// stays below 2.5.
func TestReplayAllocsPerRequestRegression(t *testing.T) {
	const seed = 42
	for _, ep := range []struct {
		name         string
		small, large int
		bound        float64
		replay       func(requests int) (errors int, err error)
	}{
		{"single-site", 2000, 8000, 1, func(n int) (int, error) {
			res, err := experiments.ReplayScale(seed, n)
			return res.Errors, err
		}},
		{"sharded", 8000, 32000, 1, func(n int) (int, error) {
			res, err := experiments.ReplayShard(seed, n, 1, nil)
			return res.Errors, err
		}},
		{"control-path", 10000, 40000, 2.5, func(n int) (int, error) {
			tb := testbed.New(testbed.Options{
				Seed: seed, EnableDocker: true, NumClients: 2000,
				SwitchIdleTimeout: time.Second, MemoryIdleTimeout: 5 * time.Second,
			})
			defer tb.Close()
			trace := workload.Generate(workload.Config{
				Seed: seed, Services: 8, TotalRequests: n, MinPerService: 2,
				Duration: time.Minute, Clients: 2000, ZipfS: 1.15, FrontLoad: 1.1,
			})
			res, err := workload.ReplayWith(tb, trace, catalog.Nginx, workload.Options{PrePull: true, PreCreate: true})
			if err != nil {
				return 0, err
			}
			return res.Errors, nil
		}},
	} {
		run := func(requests int) float64 {
			return testing.AllocsPerRun(1, func() {
				if errors, err := ep.replay(requests); err != nil || errors != 0 {
					t.Fatalf("%s replay of %d requests: %d errors, %v", ep.name, requests, errors, err)
				}
			})
		}
		perRequest := (run(ep.large) - run(ep.small)) / float64(ep.large-ep.small)
		t.Logf("%s: steady-state allocations per request: %.2f", ep.name, perRequest)
		if perRequest >= ep.bound {
			t.Errorf("%s: steady-state allocs/request = %.2f, want < %v", ep.name, perRequest, ep.bound)
		}
	}
}
