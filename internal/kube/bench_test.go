package kube_test

import (
	"fmt"
	"testing"
	"time"

	"transparentedge/internal/catalog"
	"transparentedge/internal/sim"
	"transparentedge/internal/testbed"
)

// deployRig is a Kubernetes-only testbed with the Nginx image pre-pulled, so
// that EnsureDeployed runs the Create, Scale-up and probe phases only.
type deployRig struct {
	tb       *testbed.Testbed
	deployed []string // services deployed and not removed again, oldest first
}

func newDeployRig(b *testing.B, deployed int) *deployRig {
	r := &deployRig{tb: testbed.New(testbed.Options{Seed: 1, EnableKube: true})}
	a, _, err := r.tb.RegisterCatalogService(catalog.Nginx)
	if err != nil {
		b.Fatal(err)
	}
	r.drive(b, func(p *sim.Proc) error { return r.tb.Kube.Pull(p, a) })
	for len(r.deployed) < deployed {
		r.deploy(b)
	}
	return r
}

// drive runs fn as a sim process and steps the kernel until it returns (the
// cluster keeps periodic timers, so the kernel never drains).
func (r *deployRig) drive(b *testing.B, fn func(p *sim.Proc) error) {
	done, err := false, error(nil)
	r.tb.K.Go("bench", func(p *sim.Proc) {
		err = fn(p)
		done = true
	})
	for !done {
		if !r.tb.K.Step() {
			b.Fatal("kernel drained before the call returned")
		}
	}
	if err != nil {
		b.Fatal(err)
	}
}

// deploy registers one more service and deploys it on demand.
func (r *deployRig) deploy(b *testing.B) {
	a, _, err := r.tb.RegisterCatalogService(catalog.Nginx)
	if err != nil {
		b.Fatal(err)
	}
	r.drive(b, func(p *sim.Proc) error {
		_, err := r.tb.Ctrl.EnsureDeployed(p, r.tb.Kube.Name(), a.UniqueName)
		return err
	})
	r.deployed = append(r.deployed, a.UniqueName)
}

// trimTo removes the newest services until n are left and waits for the
// cascade (ReplicaSet, pods, containers) to finish.
func (r *deployRig) trimTo(b *testing.B, n int) {
	r.drive(b, func(p *sim.Proc) error {
		for _, name := range r.deployed[n:] {
			if err := r.tb.Kube.Remove(p, name); err != nil {
				return err
			}
		}
		for len(r.tb.Kube.API().ListPods(nil)) > n {
			p.Sleep(time.Second)
		}
		return nil
	})
	r.deployed = r.deployed[:n]
}

// BenchmarkEnsureDeployed is the ledger's "one deployment per cluster type"
// unit for Kubernetes: the host cost of one on-demand deployment with 1 and
// with 500 services already deployed (the population grows by a window of 50,
// then the window is removed again off the clock). The API store serves every
// controller from indexes, so the cost must not depend on the population; the
// gate fails if at500 costs more than twice at1.
func BenchmarkEnsureDeployed(b *testing.B) {
	const window = 50
	perOp := map[int]time.Duration{}
	for _, at := range []int{1, 500} {
		b.Run(fmt.Sprintf("at%d", at), func(b *testing.B) {
			b.ReportAllocs()
			r := newDeployRig(b, at)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if len(r.deployed) >= at+window {
					b.StopTimer()
					r.trimTo(b, at)
					b.StartTimer()
				}
				r.deploy(b)
			}
			perOp[at] = b.Elapsed() / time.Duration(b.N)
		})
	}
	b.Run("within-2x", func(b *testing.B) {
		if perOp[1] == 0 || perOp[500] == 0 {
			b.Skip("at1 or at500 filtered out; nothing to compare")
		}
		ratio := float64(perOp[500]) / float64(perOp[1])
		b.ReportMetric(ratio, "at500/at1")
		if ratio > 2 {
			b.Fatalf("a deployment at 500 services costs %.2fx one at 1 (%v vs %v), want <= 2x", ratio, perOp[500], perOp[1])
		}
	})
}
