package experiments

import (
	"fmt"
	"testing"

	"transparentedge/internal/obs"
)

// TestSteerBackendParity replays the fig. 9-style trace under both steering
// backends and checks decision/outcome parity: the scheduler must make the
// same choices (deployments, memory hits, cloud forwards, packet-ins) and
// the requests must end the same way. Latency is allowed to differ between
// backends; correctness is not.
func TestSteerBackendParity(t *testing.T) {
	type run struct {
		res  PointResult
		ctrs map[string]float64
	}
	runOne := func(backend string) run {
		reg := obs.NewRegistry()
		res := must(runPoint(runOpts{steer: backend, counters: reg}.point(21, 600)))
		return run{res: res.PointResult, ctrs: reg.Map()}
	}
	of := runOne("openflow")
	sr := runOne("srv6")
	served(t, "openflow", of.res)
	served(t, "srv6", sr.res)

	if of.res.Errors != sr.res.Errors {
		t.Errorf("errors: openflow %d, srv6 %d", of.res.Errors, sr.res.Errors)
	}
	if of.res.Deployments != sr.res.Deployments {
		t.Errorf("deployments: openflow %d, srv6 %d", of.res.Deployments, sr.res.Deployments)
	}
	// The scheduler's decision stream, as seen through the dispatch
	// counters, must be identical — only the steering mechanism differs.
	for _, name := range []string{
		"dispatch_packet_ins_total",
		"dispatch_memory_served_total",
		"dispatch_cloud_forwards_total",
		"deploy_performed_total",
		"flowmemory_hits_total",
		"flowmemory_misses_total",
	} {
		if of.ctrs[name] != sr.ctrs[name] {
			t.Errorf("%s: openflow %v, srv6 %v", name, of.ctrs[name], sr.ctrs[name])
		}
	}
	// The stateless backend must never touch a switch table.
	if mods := sr.ctrs["steer_flow_mods_total"]; mods != 0 {
		t.Errorf("srv6 sent %v flow-mods, want 0", mods)
	}
	if of.ctrs["steer_flow_mods_total"] == 0 {
		t.Error("openflow sent no flow-mods — accounting broken")
	}
	if sr.ctrs["steer_encap_total"] == 0 {
		t.Error("srv6 encapsulated nothing — ingress hook not in the path")
	}
	t.Logf("openflow median/p95 %v/%v, srv6 %v/%v",
		of.res.Median, of.res.P95, sr.res.Median, sr.res.P95)
}

// TestSteerSweepScaling runs the backend-comparison sweep and asserts the
// issue's acceptance shape: srv6 table occupancy and flow-mod count stay
// O(1) in the client count while openflow's grow, at dispatch latency no
// worse than openflow — and both backends pass the serial-vs-sharded and
// traced-vs-untraced fingerprint gates.
func TestSteerSweepScaling(t *testing.T) {
	r := must(SteerSweep(13, 600, nil))
	byBackend := map[string][]SteerPoint{}
	for _, p := range r.Points {
		served(t, fmt.Sprintf("%s, %d clients", p.Backend, p.Clients), p.PointResult)
		byBackend[p.Backend] = append(byBackend[p.Backend], p)
	}
	of, sr := byBackend["openflow"], byBackend["srv6"]
	if len(of) != len(sr) || len(of) < 2 {
		t.Fatalf("unexpected point layout: %d openflow / %d srv6", len(of), len(sr))
	}
	for i, p := range sr {
		if p.FlowMods != 0 {
			t.Errorf("srv6 clients=%d: %d flow-mods, want 0", p.Clients, p.FlowMods)
		}
		if p.RuleHighWater != sr[0].RuleHighWater {
			t.Errorf("srv6 occupancy varies with clients: %d at %d clients vs %d at %d",
				p.RuleHighWater, p.Clients, sr[0].RuleHighWater, sr[0].Clients)
		}
		if p.Median > of[i].Median || p.P95 > of[i].P95 {
			t.Errorf("srv6 clients=%d latency worse than openflow: %v/%v vs %v/%v",
				p.Clients, p.Median, p.P95, of[i].Median, of[i].P95)
		}
		if p.Errors != of[i].Errors || p.Deployments != of[i].Deployments {
			t.Errorf("clients=%d outcome mismatch: srv6 %d/%d, openflow %d/%d",
				p.Clients, p.Errors, p.Deployments, of[i].Errors, of[i].Deployments)
		}
	}
	last := len(of) - 1
	if of[last].RuleHighWater <= of[0].RuleHighWater {
		t.Errorf("openflow occupancy did not grow with clients: %d -> %d",
			of[0].RuleHighWater, of[last].RuleHighWater)
	}
	if of[last].FlowMods <= of[0].FlowMods {
		t.Errorf("openflow flow-mods did not grow with clients: %d -> %d",
			of[0].FlowMods, of[last].FlowMods)
	}
	for _, p := range r.Parity {
		if !p.ShardMatch {
			t.Errorf("%s: fingerprint differs serial vs sharded", p.Backend)
		}
		if !p.TracedMatch {
			t.Errorf("%s: fingerprint differs traced vs untraced", p.Backend)
		}
	}
	t.Log("\n" + r.String())
}
