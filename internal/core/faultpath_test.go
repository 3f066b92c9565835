package core

import (
	"errors"
	"testing"
	"time"

	"transparentedge/internal/cluster"
	"transparentedge/internal/sim"
	"transparentedge/internal/simnet"
)

// TestProbeMaxWaitConvertsToError: an instance whose port never opens must
// turn the (previously eternal) probe loop into a deployment error once
// ProbeMaxWait elapses.
func TestProbeMaxWaitConvertsToError(t *testing.T) {
	cfg := Config{}
	cfg.ProbeMaxWait = 2 * time.Second
	rg := newHotpathRig(t, 1, 0, cfg)
	fc := rg.clusters[0]
	fc.crashStarts = 1

	var err error
	done := false
	rg.k.Go("deployer", func(p *sim.Proc) {
		_, err = rg.ctrl.EnsureDeployed(p, fc.name, rg.svc.UniqueName)
		done = true
	})
	rg.k.RunUntil(time.Minute)
	if !done {
		t.Fatal("deployment hung past the probe deadline")
	}
	if !errors.Is(err, ErrProbeTimeout) {
		t.Fatalf("err = %v, want ErrProbeTimeout", err)
	}
	// The dead instance was scaled back down before reporting the failure.
	if fc.scaleDowns != 1 {
		t.Errorf("ScaleDown calls = %d, want 1 (cleanup before failing)", fc.scaleDowns)
	}
	recs := rg.ctrl.RecordsIncluding(fc.name, "", true)
	if len(recs) != 1 || recs[0].Err == nil || recs[0].Attempts != 1 {
		t.Fatalf("failure records = %+v, want one with Err set and Attempts=1", recs)
	}
	if rg.ctrl.Stats.DeployFailures != 1 {
		t.Errorf("Stats.DeployFailures = %d, want 1", rg.ctrl.Stats.DeployFailures)
	}
}

// TestRetryRecoversCrashedStart: with DeployRetries set, a crash-after-start
// (probe timeout) is retried under backoff and the deployment succeeds; the
// record counts both attempts.
func TestRetryRecoversCrashedStart(t *testing.T) {
	cfg := Config{}
	cfg.ProbeMaxWait = time.Second
	cfg.DeployRetries = 2
	rg := newHotpathRig(t, 1, 0, cfg)
	fc := rg.clusters[0]
	fc.crashStarts = 1

	var err error
	var inst cluster.Instance
	rg.k.Go("deployer", func(p *sim.Proc) {
		inst, err = rg.ctrl.EnsureDeployed(p, fc.name, rg.svc.UniqueName)
	})
	rg.k.RunUntil(time.Minute)
	if err != nil {
		t.Fatalf("deployment failed despite retries: %v", err)
	}
	if inst != fc.instance(rg.svc.UniqueName) {
		t.Fatalf("instance = %+v", inst)
	}
	recs := rg.ctrl.RecordsFor(fc.name, "")
	if len(recs) != 1 {
		t.Fatalf("records = %d, want 1", len(recs))
	}
	if recs[0].Attempts != 2 || recs[0].Retries != 1 {
		t.Errorf("Attempts/Retries = %d/%d, want 2/1", recs[0].Attempts, recs[0].Retries)
	}
	if rg.ctrl.Stats.DeployRetries != 1 {
		t.Errorf("Stats.DeployRetries = %d, want 1", rg.ctrl.Stats.DeployRetries)
	}
	if rg.ctrl.Stats.DeployFailures != 0 {
		t.Errorf("Stats.DeployFailures = %d, want 0", rg.ctrl.Stats.DeployFailures)
	}
}

// TestDispatchFallsBackToNextCluster: when the chosen cluster's deployment
// fails, the held first request must be served by the next-best cluster
// instead of being dropped.
func TestDispatchFallsBackToNextCluster(t *testing.T) {
	rg := newHotpathRig(t, 2, 1, Config{})
	rg.clusters[0].failScaleUps = 100 // fc0 (nearest) never comes up

	served := false
	rg.k.Go("ue", func(p *sim.Proc) {
		if _, err := rg.clients[0].HTTPGet(p, "203.0.113.10", 80, &simnet.HTTPRequest{}, 0); err != nil {
			t.Errorf("request: %v", err)
			return
		}
		served = true
	})
	rg.k.RunUntil(time.Minute)
	if !served {
		t.Fatal("held packet was dropped: request never completed")
	}
	if rg.ctrl.Stats.FallbackDeployments != 1 {
		t.Errorf("Stats.FallbackDeployments = %d, want 1", rg.ctrl.Stats.FallbackDeployments)
	}
	if !rg.clusters[1].running {
		t.Error("fallback cluster fc1 not running")
	}
	for _, e := range rg.ctrl.Memory.Entries() {
		if e.Instance.Cluster != "fc1" {
			t.Errorf("flow memorized to %s, want the fallback cluster fc1", e.Instance.Cluster)
		}
	}
}

// TestDispatchReleasesHeldPacketToCloud: when every cluster fails to deploy,
// the held first packet must be released toward the cloud origin (not
// dropped), and the failure surfaced in the stats.
func TestDispatchReleasesHeldPacketToCloud(t *testing.T) {
	cfg := Config{}
	cfg.ProbeMaxWait = 2 * time.Second
	rg := newHotpathRig(t, 1, 1, cfg)
	rg.clusters[0].failScaleUps = 100

	// Stand in for the cloud origin: a host that really serves the VIP,
	// reachable over the switch's default route (as in fig. 1).
	cloud := simnet.NewHost(rg.n, "cloud", "203.0.113.10")
	link := simnet.LinkConfig{Latency: 100 * time.Microsecond, Bandwidth: simnet.Gbps}
	rg.sw.AttachHost(cloud, 250, link)
	rg.sw.SetDefaultRoute(250)
	cloud.ServeHTTPAsync(80, cluster.Behavior{RespSize: simnet.KiB}.AsyncHandler())

	served := false
	rg.k.Go("ue", func(p *sim.Proc) {
		if _, err := rg.clients[0].HTTPGet(p, "203.0.113.10", 80, &simnet.HTTPRequest{}, 0); err != nil {
			t.Errorf("request: %v", err)
			return
		}
		served = true
	})
	rg.k.RunUntil(time.Minute)
	if !served {
		t.Fatal("held packet was dropped: request never reached the cloud origin")
	}
	if rg.ctrl.Stats.CloudFallbacks != 1 {
		t.Errorf("Stats.CloudFallbacks = %d, want 1", rg.ctrl.Stats.CloudFallbacks)
	}
	if rg.ctrl.Stats.DeployFailures == 0 {
		t.Error("Stats.DeployFailures = 0, want > 0")
	}
}

// TestScaleDownFailureCounted: a failing idle scale-down must be counted and
// logged instead of silently swallowed (the old `if err == nil` bug), and
// must leave the instance running.
func TestScaleDownFailureCounted(t *testing.T) {
	cfg := Config{}
	cfg.AutoScaleDown = true
	cfg.SwitchIdleTimeout = time.Second
	cfg.MemoryIdleTimeout = 2 * time.Second
	rg := newHotpathRig(t, 1, 1, cfg)
	fc := rg.clusters[0]
	fc.failScaleDowns = 100

	rg.k.Go("ue", func(p *sim.Proc) {
		if _, err := rg.clients[0].HTTPGet(p, "203.0.113.10", 80, &simnet.HTTPRequest{}, 0); err != nil {
			t.Errorf("request: %v", err)
		}
	})
	rg.k.RunUntil(30 * time.Second)
	if rg.ctrl.Stats.ScaleDownFailures == 0 {
		t.Error("Stats.ScaleDownFailures = 0, want > 0")
	}
	if !fc.running {
		t.Error("instance not running after failed scale-down")
	}
}

// TestDrainInterruptionRedeploys: a flow pointed at the instance while the
// idle scale-down is in flight must trigger a redeploy, so the memorized
// redirect never points at a torn-down endpoint.
func TestDrainInterruptionRedeploys(t *testing.T) {
	k := sim.New(1)
	m := NewFlowMemory(k, time.Second)
	in := mkInst("svc", "10.0.0.1", 32000)

	if ok := m.BeginDrain(in); !ok {
		t.Fatal("BeginDrain refused an idle instance")
	}
	// A returning client is memorized mid-drain.
	m.Put(FlowKey{Client: "ue1", VIP: "203.0.113.10", Port: 80}, in)
	if interrupted := m.EndDrain(in); !interrupted {
		t.Fatal("EndDrain did not report the mid-drain attach")
	}
	// And with flows present, a new drain must not even begin.
	if ok := m.BeginDrain(in); ok {
		t.Fatal("BeginDrain accepted an instance with live flows")
	}
	// A clean begin/end cycle reports no interruption.
	m2 := NewFlowMemory(k, time.Second)
	if !m2.BeginDrain(in) || m2.EndDrain(in) {
		t.Fatal("clean drain cycle misreported an interruption")
	}
}

// TestRecordsIncludingFailed: RecordsFor keeps its historic
// successful-only contract; RecordsIncluding exposes the failures.
func TestRecordsIncludingFailed(t *testing.T) {
	rg := newHotpathRig(t, 1, 0, Config{})
	rg.ctrl.records = append(rg.ctrl.records, DeployRecord{Service: "ok", Cluster: "fc0", Attempts: 1})
	rg.ctrl.records = append(rg.ctrl.records, DeployRecord{Service: "bad", Cluster: "fc0", Attempts: 3, Retries: 2, Err: errors.New("boom")})

	if got := rg.ctrl.RecordsFor("fc0", ""); len(got) != 1 || got[0].Service != "ok" {
		t.Fatalf("RecordsFor = %+v, want only the successful record", got)
	}
	all := rg.ctrl.RecordsIncluding("fc0", "", true)
	if len(all) != 2 {
		t.Fatalf("RecordsIncluding = %d records, want 2", len(all))
	}
	if got := rg.ctrl.RecordsIncluding("", "bad", true); len(got) != 1 || got[0].Attempts != 3 {
		t.Fatalf("failed record = %+v, want Attempts=3", got)
	}
}
