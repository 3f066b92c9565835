package experiments

import (
	"fmt"
	"testing"
	"time"
)

// TestMobilitySweepShape runs the full mobility comparison at small scale
// and asserts the issue's acceptance criteria: identical scheduler
// decisions across backends, a zero continuity gap and zero flow-mod churn
// for the stateless backend, a real gap and per-flow churn for the
// rule-based one, bit-identical sharded fingerprints at every shard count,
// and bounded controller state after the run.
func TestMobilitySweepShape(t *testing.T) {
	r := must(MobilitySweep(23, 160, nil))
	if !r.DecisionParity {
		t.Error("backends made different scheduler decisions under mobility")
	}
	byBackend := map[string][]MobilityPoint{}
	for _, p := range r.Points {
		served(t, fmt.Sprintf("%s, dwell %v", p.Backend, p.MeanDwell), p.PointResult)
		byBackend[p.Backend] = append(byBackend[p.Backend], p)
	}
	of, sr := byBackend["openflow"], byBackend["srv6"]
	if len(of) != len(sr) || len(of) < 2 {
		t.Fatalf("unexpected point layout: %d openflow / %d srv6", len(of), len(sr))
	}
	for i := range of {
		if of[i].Handovers != sr[i].Handovers {
			t.Errorf("dwell %v: handover schedules differ: %d vs %d",
				of[i].MeanDwell, of[i].Handovers, sr[i].Handovers)
		}
		if of[i].Handovers == 0 {
			t.Errorf("dwell %v: no handovers executed", of[i].MeanDwell)
		}
	}
	// Faster handover rate = more handovers.
	if of[len(of)-1].Handovers <= of[0].Handovers {
		t.Errorf("handovers did not grow with the rate: %d -> %d",
			of[0].Handovers, of[len(of)-1].Handovers)
	}
	for _, p := range sr {
		if p.FlowMods != 0 {
			t.Errorf("srv6 dwell %v: %d flow-mods, want 0", p.MeanDwell, p.FlowMods)
		}
		if p.GapP99 != 0 {
			t.Errorf("srv6 dwell %v: continuity gap p99 = %v, want 0", p.MeanDwell, p.GapP99)
		}
		if p.ReAnchors == 0 {
			t.Errorf("srv6 dwell %v: no eager re-anchors", p.MeanDwell)
		}
	}
	for _, p := range of {
		if p.GapSamples == 0 || p.GapP99 == 0 {
			t.Errorf("openflow dwell %v: gap samples = %d p99 = %v, want a real gap",
				p.MeanDwell, p.GapSamples, p.GapP99)
		}
		if p.FlowMods == 0 {
			t.Errorf("openflow dwell %v: no flow-mods — churn accounting broken", p.MeanDwell)
		}
	}
	for _, p := range r.Points {
		// clientLoc / pending-handover state stays bounded by the client
		// population under both backends.
		if p.TrackedClients > 20 {
			t.Errorf("%s dwell %v: tracked clients = %d, want <= 20", p.Backend, p.MeanDwell, p.TrackedClients)
		}
		if p.PendingHandovers > 20 {
			t.Errorf("%s dwell %v: pending handovers = %d", p.Backend, p.MeanDwell, p.PendingHandovers)
		}
	}
	if len(r.Parity) != 2 {
		t.Fatalf("parity entries = %d, want one per backend", len(r.Parity))
	}
	for _, pr := range r.Parity {
		if !pr.ShardMatch {
			t.Errorf("%s: sharded mobility fingerprints diverge from serial", pr.Backend)
		}
		if pr.Serial == 0 {
			t.Errorf("%s: zero fingerprint", pr.Backend)
		}
	}
}

// TestMobilityShardDeterminism re-runs one sharded mobility configuration
// twice at the same shard count and across counts: same inputs, same
// fingerprint, bit for bit.
func TestMobilityShardDeterminism(t *testing.T) {
	run := func(shards int) MobilityShardRun {
		s := runOpts{steer: "openflow"}.point(5, 160)
		s.Shards, s.Dwell = shards, 10*time.Second
		m, _, err := runMobility(s)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := run(2), run(2)
	if a.Fingerprint() != b.Fingerprint() {
		t.Errorf("same run twice: %016x vs %016x", a.Fingerprint(), b.Fingerprint())
	}
	if a.Handovers == 0 {
		t.Error("sharded run executed no handovers")
	}
	c := run(8)
	served(t, "2 shards", a.PointResult)
	served(t, "8 shards", c.PointResult)
	if a.Fingerprint() != c.Fingerprint() {
		t.Errorf("2 vs 8 shards: %016x vs %016x", a.Fingerprint(), c.Fingerprint())
	}
}
