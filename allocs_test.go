package transparentedge_test

import (
	"testing"

	"transparentedge/internal/experiments"
)

// TestReplayAllocsPerRequestRegression pins the replay engine's
// steady-state allocation rate below one per request (DESIGN.md §15): a warm
// request recycles its in-flight record, HTTP call, connections and server
// connection, and what remains is the control path's share (packet-ins,
// flow installs) and free lists growing to the peak in flight. It is
// measured with testing.AllocsPerRun, at both entry points: the single-site
// replay and the sharded one on a single kernel (the same engine staged once
// per region, so the same bound). Comparing two trace sizes cancels the
// per-run fixed cost (testbed construction, trace generation, the warm-up
// deployments): the delta between the larger and the smaller replay is pure
// steady-state path. The sharded pair is four times larger because its
// trace spreads over eight times the clients: below 8k requests a client's
// gap between requests outlasts the switch idle timeout and every request
// pays a packet-in, which is control-path cost, not the steady state. The
// simulation is deterministic per seed, so the count is stable — a failure
// here means a new allocation crept onto the request path.
func TestReplayAllocsPerRequestRegression(t *testing.T) {
	const seed = 42
	for _, ep := range []struct {
		name         string
		small, large int
		replay       func(requests int) (errors int, err error)
	}{
		{"single-site", 2000, 8000, func(n int) (int, error) {
			res, err := experiments.ReplayScale(seed, n)
			return res.Errors, err
		}},
		{"sharded", 8000, 32000, func(n int) (int, error) {
			res, err := experiments.ReplayShard(seed, n, 1, nil)
			return res.Errors, err
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
		if perRequest >= 1 {
			t.Errorf("%s: steady-state allocs/request = %.2f, want < 1", ep.name, perRequest)
		}
	}
}
