package kube

import (
	"errors"
	"testing"
	"time"

	"transparentedge/internal/faults"
	"transparentedge/internal/sim"
	"transparentedge/internal/simnet"
)

func withFaults(r *rig, spec faults.ClusterSpec) {
	plan := faults.NewPlan(faults.Spec{
		Seed:     1,
		Clusters: map[string]faults.ClusterSpec{"egs-k8s": spec},
	})
	r.kc.SetFaults(plan.For("egs-k8s"))
}

// TestFaultScaleUpFailsThenSucceeds: injected scale-up errors surface before
// the deployment object is touched, so a retry starts clean and succeeds.
func TestFaultScaleUpFailsThenSucceeds(t *testing.T) {
	r := newRig(t, nil)
	withFaults(r, faults.ClusterSpec{FailFirstScaleUps: 1})
	a := annotated(t, "web.example.com")
	r.k.Go("driver", func(p *sim.Proc) {
		if err := r.kc.Pull(p, a); err != nil {
			t.Fatalf("pull: %v", err)
		}
		if err := r.kc.Create(p, a); err != nil {
			t.Fatalf("create: %v", err)
		}
		if _, err := r.kc.ScaleUp(p, a.UniqueName); !errors.Is(err, faults.ErrInjectedScaleUp) {
			t.Fatalf("first scale-up: err = %v, want ErrInjectedScaleUp", err)
		}
		if r.kc.Running(a.UniqueName) {
			t.Error("deployment scaled up despite the injected failure")
		}
		inst, err := r.kc.ScaleUp(p, a.UniqueName)
		if err != nil {
			t.Fatalf("retry scale-up: %v", err)
		}
		probeUntilOpen(p, r.client, inst, 50*time.Millisecond)
	})
	r.k.RunUntil(2 * time.Minute)
}

// TestFaultCrashedPodPortNeverOpens: a crash-after-start pod stays Running
// at the API level (the kubelet does not watch process health) but its
// NodePort never accepts; scaling down and up again yields a healthy pod.
func TestFaultCrashedPodPortNeverOpens(t *testing.T) {
	r := newRig(t, nil)
	withFaults(r, faults.ClusterSpec{CrashFirstStarts: 1})
	a := annotated(t, "web.example.com")
	r.k.Go("driver", func(p *sim.Proc) {
		if err := r.kc.Pull(p, a); err != nil {
			t.Fatalf("pull: %v", err)
		}
		if err := r.kc.Create(p, a); err != nil {
			t.Fatalf("create: %v", err)
		}
		inst, err := r.kc.ScaleUp(p, a.UniqueName)
		if err != nil {
			t.Fatalf("scale-up: %v (a crash is discovered by probing, not returned)", err)
		}
		// Give the kubelet ample time to start the pod and the crash watcher
		// to kill it; the port must never be accepting afterwards.
		p.Sleep(20 * time.Second)
		if _, err := r.client.HTTPGet(p, inst.Addr, inst.Port, &simnet.HTTPRequest{}, 50*time.Millisecond); err == nil {
			t.Error("crashed pod accepted a connection")
		}
		// Recovery: delete the dead pod, schedule a fresh one.
		if err := r.kc.ScaleDown(p, a.UniqueName); err != nil {
			t.Fatalf("scale-down: %v", err)
		}
		p.Sleep(5 * time.Second) // let the replica-set controller reap the pod
		inst2, err := r.kc.ScaleUp(p, a.UniqueName)
		if err != nil {
			t.Fatalf("retry scale-up: %v", err)
		}
		probeUntilOpen(p, r.client, inst2, 50*time.Millisecond)
	})
	r.k.RunUntil(5 * time.Minute)
}

// TestFaultOutageMidDeploy: an outage window opening between Create and
// ScaleUp fails the scale-up; after the window the deployment completes.
func TestFaultOutageMidDeploy(t *testing.T) {
	r := newRig(t, nil)
	withFaults(r, faults.ClusterSpec{
		Outages: []faults.Window{{From: 30 * time.Second, To: 60 * time.Second}},
	})
	a := annotated(t, "web.example.com")
	r.k.Go("driver", func(p *sim.Proc) {
		if err := r.kc.Pull(p, a); err != nil {
			t.Fatalf("pull: %v", err)
		}
		if err := r.kc.Create(p, a); err != nil {
			t.Fatalf("create: %v", err)
		}
		p.SleepUntil(35 * time.Second) // inside the outage
		if _, err := r.kc.ScaleUp(p, a.UniqueName); !errors.Is(err, faults.ErrOutage) {
			t.Fatalf("scale-up during outage: err = %v, want ErrOutage", err)
		}
		p.SleepUntil(65 * time.Second) // outage over
		inst, err := r.kc.ScaleUp(p, a.UniqueName)
		if err != nil {
			t.Fatalf("scale-up after outage: %v", err)
		}
		probeUntilOpen(p, r.client, inst, 50*time.Millisecond)
	})
	r.k.RunUntil(5 * time.Minute)
}
