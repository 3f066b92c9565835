package serverless

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
		Clusters: map[string]faults.ClusterSpec{"egs-serverless": spec},
	})
	r.pl.SetFaults(plan.For("egs-serverless"))
}

// TestFaultPullFailsThenSucceeds: module fetches fail the injected number of
// times and then really fetch.
func TestFaultPullFailsThenSucceeds(t *testing.T) {
	r := newRig(t)
	withFaults(r, faults.ClusterSpec{FailFirstPulls: 1})
	a := annotated(t, wasmYAML)
	r.k.Go("driver", func(p *sim.Proc) {
		if err := r.pl.Pull(p, a); !errors.Is(err, faults.ErrInjectedPull) {
			t.Errorf("first pull: err = %v, want ErrInjectedPull", err)
		}
		if err := r.pl.Pull(p, a); err != nil {
			t.Errorf("second pull: %v, want success", err)
		}
		if !r.pl.HasImages(a) {
			t.Error("module missing after successful pull")
		}
	})
	r.k.RunUntil(time.Minute)
}

// TestFaultCrashAfterInstantiate: a crashed instantiation returns the
// instance but never opens the endpoint and marks the function idle; the
// next ScaleUp re-instantiates and the endpoint opens.
func TestFaultCrashAfterInstantiate(t *testing.T) {
	r := newRig(t)
	withFaults(r, faults.ClusterSpec{CrashFirstStarts: 1})
	a := annotated(t, wasmYAML)
	r.k.Go("driver", func(p *sim.Proc) {
		if err := r.pl.Pull(p, a); err != nil {
			t.Fatalf("pull: %v", err)
		}
		if err := r.pl.Create(p, a); err != nil {
			t.Fatalf("create: %v", err)
		}
		inst, err := r.pl.ScaleUp(p, a.UniqueName)
		if err != nil {
			t.Fatalf("scale-up: %v (a crash is discovered by probing, not returned)", err)
		}
		if r.pl.Running(a.UniqueName) {
			t.Error("function running after crash-after-instantiate")
		}
		p.Sleep(time.Second) // far beyond module init; port must stay closed
		if _, err := r.client.HTTPGet(p, inst.Addr, inst.Port, &simnet.HTTPRequest{}, 50*time.Millisecond); err == nil {
			t.Error("crashed function accepted a connection")
		}
		inst2, err := r.pl.ScaleUp(p, a.UniqueName)
		if err != nil {
			t.Fatalf("retry scale-up: %v", err)
		}
		for {
			if _, err := r.client.HTTPGet(p, inst2.Addr, inst2.Port, &simnet.HTTPRequest{}, 50*time.Millisecond); err == nil {
				break
			}
			p.Sleep(10 * time.Millisecond)
		}
		if cold := r.pl.ColdStarts; cold != 2 {
			t.Errorf("ColdStarts = %d, want 2 (crash + recovery)", cold)
		}
	})
	r.k.RunUntil(time.Minute)
}
