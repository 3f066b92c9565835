package kube_test

import (
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"transparentedge/internal/catalog"
	"transparentedge/internal/core"
	"transparentedge/internal/kube"
	"transparentedge/internal/sim"
	"transparentedge/internal/testbed"
	"transparentedge/internal/workload"
)

// TestModelNeverWritesSnapshots: Get, lists and watch events share the
// stored snapshots, so model code that changes one without cloning it first
// changes what every other reader holds. The guard runs a small cold-deploy
// replay on the hybrid (Docker answers first while Kubernetes deploys behind
// it), scales one service to zero and back, hashes every snapshot when it is
// published and checks every hash again at run end. A snapshot published twice — an Update handed the stored
// pointer itself — must not have changed in between either.
func TestModelNeverWritesSnapshots(t *testing.T) {
	const seed = 42
	tb := testbed.New(testbed.Options{
		Seed: seed, EnableDocker: true, EnableKube: true,
		Scheduler: core.DockerFirstScheduler{},
	})
	defer tb.Close()
	digest := func(snap any) uint64 {
		h := fnv.New64a()
		fmt.Fprintf(h, "%#v", snap)
		return h.Sum64()
	}
	published := map[any]uint64{}
	var order []any
	kube.ObservePublishes(tb.Kube.API(), func(snap any) {
		sum := digest(snap)
		if was, seen := published[snap]; seen {
			if was != sum {
				t.Errorf("a published snapshot was changed and published again: now %+v", snap)
			}
			return
		}
		published[snap] = sum
		order = append(order, snap)
	})
	const services = 8
	trace := workload.Generate(workload.Config{
		Seed: seed, Services: services, TotalRequests: 4 * services, MinPerService: 2,
		Duration: services * 400 * time.Millisecond, Clients: 20, ZipfS: 1.15, FrontLoad: 1.1,
	})
	res, err := workload.ReplayWith(tb, trace, catalog.Nginx, workload.Options{PrePull: true})
	if err != nil || res.Errors != 0 || res.Unfinished != 0 {
		t.Fatalf("replay: %v, %d errors, %d unfinished", err, res.Errors, res.Unfinished)
	}
	// Then one service scales to zero and back, so the Deployment controller
	// changes an existing ReplicaSet's replica count both ways.
	name := tb.Kube.Services()[0]
	tb.K.Go("rescale", func(p *sim.Proc) {
		if err := tb.Kube.ScaleDown(p, name); err != nil {
			t.Errorf("scale down %s: %v", name, err)
		}
		p.Sleep(10 * time.Second)
		if _, err := tb.Kube.ScaleUp(p, name); err != nil {
			t.Errorf("scale up %s: %v", name, err)
		}
	})
	tb.K.RunUntil(tb.K.Now() + time.Minute)
	kinds := map[string]int{}
	for _, snap := range order {
		kinds[fmt.Sprintf("%T", snap)]++
		if digest(snap) != published[snap] {
			t.Errorf("a snapshot changed after it was published: now %+v", snap)
		}
	}
	for _, kind := range []string{"*kube.Deployment", "*kube.ReplicaSet", "*kube.Pod", "*kube.Service"} {
		if kinds[kind] == 0 {
			t.Errorf("no %s snapshot was published: the scenario does not reach that store (%v)", kind, kinds)
		}
	}
}
