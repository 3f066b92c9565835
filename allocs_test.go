package transparentedge_test

import (
	"testing"
	"time"

	"transparentedge/internal/catalog"
	"transparentedge/internal/core"
	"transparentedge/internal/experiments"
	"transparentedge/internal/testbed"
	"transparentedge/internal/workload"
)

// tableReplay runs the named replay experiment of experiments.Table and
// returns its failed-request count.
func tableReplay(t *testing.T, name string, p experiments.Params) (errors int, err error) {
	for _, e := range experiments.Table {
		if e.Name == name {
			out, err := e.Run(p)
			if err != nil {
				return 0, err
			}
			return int(out.JSON.(experiments.JSONResult).Metrics["errors"]), nil
		}
	}
	t.Fatalf("no experiment %s", name)
	return 0, nil
}

// TestReplayAllocsPerRequestRegression pins the replay engine's
// steady-state allocation rate (DESIGN.md §8). It is measured with
// testing.AllocsPerRun at two trace sizes: the delta between the larger and
// the smaller replay cancels the per-run fixed cost (testbed construction,
// trace generation, the warm-up deployments) and leaves the steady-state
// path. The simulation is deterministic per seed, so the count is stable — a
// failure here means a new allocation crept onto the path.
//
// The data-path entries stay below one per request: a warm request recycles
// its in-flight record, HTTP call, connections and server connection, and
// what remains is the odd packet-in and free lists growing to the peak in
// flight. They cover both entry points, scale-replay and scale-shard as
// edgesim runs them: the single-site replay and the sharded one on a single
// kernel (the same engine staged once per region, so the same bound). The
// sharded pair is four times larger because its trace
// spreads over eight times the clients: below 8k requests a client's gap
// between requests outlasts the switch idle timeout and every request pays a
// packet-in, which is control-path cost, not the steady state.
//
// The control-path entry is the flow-churn shape: 2 000 clients, a 1 s switch
// and a 5 s FlowMemory idle timeout, a one-minute window. Nearly every request
// punts at these sizes, and most of those are full dispatches; rules, cookie
// groups, memorized entries and dispatch records recycle, and a dispatch to a
// running instance starts no process. What a request still pays is the free
// lists growing to the peak in flight and the process of each dispatch that
// waits for a deployment. It stays below 1.
//
// The deployment-path entry is the cold-hybrid shape: Docker and Kubernetes
// behind the Docker-first scheduler, images pre-pulled, four requests per
// service, at 16 and 64 services, so its delta is what one more service's
// registration, two deployments and four requests cost. Probe dials recycle
// their connections, kube reads share the stored snapshots and their label
// maps and templates, watch deliveries recycle, and the controller parses a
// definition once per YAML source and renders no documents; what remains is
// the service's annotation (its container list), its cloud-origin host, the
// API objects each deployment creates, the deployment's processes and
// continuations, and the requests. It measures 41.6; the bound leaves about
// 10 %.
func TestReplayAllocsPerRequestRegression(t *testing.T) {
	const seed = 42
	for _, ep := range []struct {
		name         string
		small, large int
		bound        float64
		replay       func(requests int) (errors int, err error)
	}{
		{"single-site", 2000, 8000, 1, func(n int) (int, error) {
			return tableReplay(t, "scale-replay", experiments.Params{Seed: seed, ReplayRequests: n})
		}},
		{"sharded", 8000, 32000, 1, func(n int) (int, error) {
			return tableReplay(t, "scale-shard", experiments.Params{Seed: seed, ReplayRequests: n, Shards: 1})
		}},
		{"control-path", 10000, 40000, 1, func(n int) (int, error) {
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
		{"deployment-path", 4 * 16, 4 * 64, 47, func(n int) (int, error) {
			tb := testbed.New(testbed.Options{
				Seed: seed, EnableDocker: true, EnableKube: true,
				Scheduler: core.DockerFirstScheduler{},
			})
			defer tb.Close()
			services := n / 4
			trace := workload.Generate(workload.Config{
				Seed: seed, Services: services, TotalRequests: n, MinPerService: 2,
				Duration: time.Duration(services) * 400 * time.Millisecond,
				Clients:  20, ZipfS: 1.15, FrontLoad: 1.1,
			})
			res, err := workload.ReplayWith(tb, trace, catalog.Nginx, workload.Options{PrePull: true})
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
