package docker

import (
	"errors"
	"testing"
	"time"

	"transparentedge/internal/faults"
	"transparentedge/internal/sim"
	"transparentedge/internal/simnet"
)

func withFaults(r *rig, spec faults.ClusterSpec) *faults.Plan {
	plan := faults.NewPlan(faults.Spec{
		Seed:     1,
		Clusters: map[string]faults.ClusterSpec{"egs-docker": spec},
	})
	r.eng.SetFaults(plan.For("egs-docker"))
	return plan
}

// TestFaultPullFailsThenSucceeds: the first N pulls fail with the injected
// error, the next one succeeds and actually fetches the image — the retry
// shape the controller's backoff loop depends on.
func TestFaultPullFailsThenSucceeds(t *testing.T) {
	r := newRig(t)
	withFaults(r, faults.ClusterSpec{FailFirstPulls: 2})
	a := annotated(t, nginxYAML, "web.example.com")
	r.k.Go("driver", func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			if err := r.eng.Pull(p, a); !errors.Is(err, faults.ErrInjectedPull) {
				t.Errorf("pull %d: err = %v, want ErrInjectedPull", i, err)
			}
		}
		if r.eng.HasImages(a) {
			t.Error("images present after injected-only pulls")
		}
		if err := r.eng.Pull(p, a); err != nil {
			t.Errorf("third pull: %v, want success", err)
		}
		if !r.eng.HasImages(a) {
			t.Error("images missing after successful pull")
		}
	})
	r.k.RunUntil(time.Minute)
}

// TestFaultCrashAfterStart: a crashed start returns the instance but the
// port never opens and the engine marks the service not running; the next
// ScaleUp restarts the stopped containers and the port opens.
func TestFaultCrashAfterStart(t *testing.T) {
	r := newRig(t)
	withFaults(r, faults.ClusterSpec{CrashFirstStarts: 1})
	a := annotated(t, nginxYAML, "web.example.com")
	r.k.Go("driver", func(p *sim.Proc) {
		if err := r.eng.Pull(p, a); err != nil {
			t.Fatalf("pull: %v", err)
		}
		if err := r.eng.Create(p, a); err != nil {
			t.Fatalf("create: %v", err)
		}
		inst, err := r.eng.ScaleUp(p, a.UniqueName)
		if err != nil {
			t.Fatalf("scale-up: %v (a crash is discovered by probing, not returned)", err)
		}
		if r.eng.Running(a.UniqueName) {
			t.Error("service running after crash-after-start")
		}
		p.Sleep(2 * time.Second) // far beyond init; the port must stay closed
		if _, err := r.client.HTTPGet(p, inst.Addr, inst.Port, &simnet.HTTPRequest{}, 50*time.Millisecond); err == nil {
			t.Error("crashed instance accepted a connection")
		}
		// Retry: containers restart from Stopped and the port opens.
		inst2, err := r.eng.ScaleUp(p, a.UniqueName)
		if err != nil {
			t.Fatalf("retry scale-up: %v", err)
		}
		for {
			if _, err := r.client.HTTPGet(p, inst2.Addr, inst2.Port, &simnet.HTTPRequest{}, 50*time.Millisecond); err == nil {
				break
			}
			p.Sleep(20 * time.Millisecond)
		}
		if !r.eng.Running(a.UniqueName) {
			t.Error("service not running after recovered scale-up")
		}
	})
	r.k.RunUntil(time.Minute)
}

// TestFaultOutageWindow: every phase fails inside the outage window and
// works again after it closes.
func TestFaultOutageWindow(t *testing.T) {
	r := newRig(t)
	withFaults(r, faults.ClusterSpec{
		Outages: []faults.Window{{From: 0, To: time.Second}},
	})
	a := annotated(t, nginxYAML, "web.example.com")
	r.k.Go("driver", func(p *sim.Proc) {
		if err := r.eng.Pull(p, a); !errors.Is(err, faults.ErrOutage) {
			t.Errorf("pull during outage: err = %v, want ErrOutage", err)
		}
		p.Sleep(1500 * time.Millisecond)
		if err := r.eng.Pull(p, a); err != nil {
			t.Errorf("pull after outage: %v, want success", err)
		}
		if err := r.eng.Create(p, a); err != nil {
			t.Errorf("create after outage: %v, want success", err)
		}
	})
	r.k.RunUntil(time.Minute)
}
