package kube

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"transparentedge/internal/cluster"
	"transparentedge/internal/container"
	"transparentedge/internal/registry"
	"transparentedge/internal/sim"
	"transparentedge/internal/simnet"
	"transparentedge/internal/spec"
)

// newBareCluster returns an unstarted cluster (no controllers, so the test
// owns every write) with the named nodes.
func newBareCluster(nodes ...string) *Cluster {
	k := sim.New(1)
	n := simnet.NewNetwork(k)
	kc := New("bare", k, Config{})
	for i, name := range nodes {
		h := simnet.NewHost(n, name, simnet.Addr(fmt.Sprintf("10.0.%d.1", i+1)))
		rt := container.NewRuntime(h, registry.NewClient(h, registry.NewResolver(), registry.DefaultClientConfig()), container.DefaultRuntimeConfig())
		kc.AddNode(name, rt, cluster.StaticBehaviors{}, DefaultCapacity())
	}
	return kc
}

// --- brute-force reference: filter + sort over the name -> object maps ---

func sortedBy[T any](in []T, name func(T) string) []T {
	sort.Slice(in, func(i, j int) bool { return name(in[i]) < name(in[j]) })
	return in
}

func brutePods(a *APIServer, keep func(*Pod) bool) []*Pod {
	var out []*Pod
	for _, pod := range a.Pods.byName {
		if keep(pod) {
			out = append(out, pod)
		}
	}
	return sortedBy(out, func(p *Pod) string { return p.Name })
}

func bruteServices(a *APIServer, keep func(*Service) bool) []*Service {
	var out []*Service
	for _, s := range a.Services.byName {
		if keep(s) {
			out = append(out, s)
		}
	}
	return sortedBy(out, func(s *Service) string { return s.Name })
}

func bruteNodePort(a *APIServer, pod *Pod, port int) int {
	for _, s := range bruteServices(a, func(s *Service) bool {
		return s.TargetPort == port && MatchLabels(pod.Labels, s.Selector)
	}) {
		return s.NodePort
	}
	return 0
}

func bruteEndpoints(c *Cluster, name string) []cluster.Instance {
	svc, ok := c.api.Services.byName[name]
	if !ok {
		return nil
	}
	var out []cluster.Instance
	for _, pod := range brutePods(c.api, func(p *Pod) bool {
		return p.Phase == PodRunning && c.nodeByName(p.NodeName) != nil && MatchLabels(p.Labels, svc.Selector)
	}) {
		out = append(out, cluster.Instance{Service: name, Cluster: c.name, Addr: c.nodeByName(pod.NodeName).rt.Host().IP(), Port: svc.NodePort})
	}
	return out
}

// indexSize counts the entries of an index and fails on an empty bucket.
func indexSize[K comparable, T object[T]](t *testing.T, what string, ix index[K, T]) int {
	t.Helper()
	n := 0
	for key, l := range ix {
		if len(l.items) == 0 {
			t.Fatalf("%s: empty bucket left under %v", what, key)
		}
		n += len(l.items)
	}
	return n
}

// TestStoreMatchesBruteForce drives random Create / Update-with-relabel /
// bind / Delete traffic at the store and checks after every step that every
// indexed answer equals a filter + sort over the name -> object map, that no
// index keeps an empty bucket, and that slices and snapshots handed out
// earlier never change.
func TestStoreMatchesBruteForce(t *testing.T) {
	const steps = 10000
	keys := []string{"app", "tier", ""}
	values := []string{"a", "b", ""}
	owners := []string{"", "rs-a", "rs-b", "rs-c"}
	nodeNames := []string{"", "n1", "n2", "ghost"} // ghost: bound to a node the cluster lacks
	ports := []int{80, 8080}
	for _, seed := range []int64{1, 2, 3, 42} {
		rng := rand.New(rand.NewSource(seed))
		c := newBareCluster("n1", "n2")
		a := c.api
		pick := func(s []string) string { return s[rng.Intn(len(s))] }
		labels := func() map[string]string {
			var m map[string]string
			for n := rng.Intn(3); n > 0; n-- {
				if m == nil {
					m = map[string]string{}
				}
				m[pick(keys)] = pick(values)
			}
			return m
		}
		podName := func() string { return fmt.Sprintf("pod-%02d", rng.Intn(24)) }
		svcName := func() string { return fmt.Sprintf("svc-%d", rng.Intn(6)) }
		rsNames := []string{"rs-a", "rs-b", "rs-c"}

		var held []*Pod      // a list taken earlier, with what it held then
		var heldPtrs []*Pod  // ... the pointers
		var heldState []*Pod // ... and deep copies of the snapshots
		retake := func() {
			held = a.ListPods(nil, nil)
			heldPtrs = slices.Clone(held)
			heldState = nil
			for _, pod := range held {
				heldState = append(heldState, pod.clone())
			}
		}
		retake()

		for step := 0; step < steps; step++ {
			switch op := rng.Intn(10); op {
			case 0, 1:
				a.CreatePod(nil, &Pod{Name: podName(), Owner: pick(owners), Labels: labels(), NodeName: pick(nodeNames)})
			case 2, 3: // relabel / re-own
				if pod, err := a.Pods.Get(nil, podName()); err == nil {
					pod.Labels, pod.Owner = labels(), pick(owners)
					a.Pods.Update(nil, pod)
				}
			case 4, 5: // bind and run, or unbind
				if pod, err := a.Pods.Get(nil, podName()); err == nil {
					pod.NodeName = pick(nodeNames)
					pod.Phase = []PodPhase{PodPending, PodRunning}[rng.Intn(2)]
					a.Pods.Update(nil, pod)
				}
			case 6:
				a.Pods.Delete(nil, podName())
			case 7:
				a.Services.Create(nil, &Service{Name: svcName(), Selector: labels(), TargetPort: ports[rng.Intn(2)], NodePort: 30000 + rng.Intn(1000)})
			case 8:
				a.Services.Delete(nil, svcName())
			case 9:
				name := pick(rsNames)
				if rs, err := a.ReplicaSets.Get(nil, name); err != nil {
					a.ReplicaSets.Create(nil, &ReplicaSet{Name: name, Owner: pick(owners)})
				} else if rng.Intn(2) == 0 {
					rs.Owner = pick(owners)
					a.ReplicaSets.Update(nil, rs)
				} else {
					a.ReplicaSets.Delete(nil, name)
				}
			}
			fail := func(format string, args ...any) {
				t.Helper()
				t.Fatalf("seed %d step %d: %s", seed, step, fmt.Sprintf(format, args...))
			}

			// Every list equals the brute-force answer.
			if got, want := a.ListPods(nil, nil), brutePods(a, func(*Pod) bool { return true }); !slices.Equal(got, want) {
				fail("ListPods(nil) = %v, want %v", got, want)
			}
			for _, k1 := range keys {
				for _, v1 := range values {
					one := map[string]string{k1: v1}
					if got, want := a.ListPods(nil, one), brutePods(a, func(p *Pod) bool { return MatchLabels(p.Labels, one) }); !slices.Equal(got, want) {
						fail("ListPods(%v) = %v, want %v", one, got, want)
					}
					two := map[string]string{k1: v1, pick(keys): pick(values)}
					if got, want := a.ListPods(nil, two), brutePods(a, func(p *Pod) bool { return MatchLabels(p.Labels, two) }); !slices.Equal(got, want) {
						fail("ListPods(%v) = %v, want %v", two, got, want)
					}
				}
			}
			for _, owner := range owners {
				if got, want := a.ListPodsByOwner(nil, owner), brutePods(a, func(p *Pod) bool { return p.Owner == owner }); !slices.Equal(got, want) {
					fail("ListPodsByOwner(%q) = %v, want %v", owner, got, want)
				}
				var want []*ReplicaSet
				for _, rs := range a.ReplicaSets.byName {
					if rs.Owner == owner {
						want = append(want, rs)
					}
				}
				sortedBy(want, func(rs *ReplicaSet) string { return rs.Name })
				if got := a.ListReplicaSets(nil, owner); !slices.Equal(got, want) {
					fail("ListReplicaSets(%q) = %v, want %v", owner, got, want)
				}
			}
			for _, node := range nodeNames {
				if got, want := a.ListPodsByNode(nil, node), brutePods(a, func(p *Pod) bool { return p.NodeName == node }); !slices.Equal(got, want) {
					fail("ListPodsByNode(%q) = %v, want %v", node, got, want)
				}
			}
			if got, want := a.Services.List(nil), bruteServices(a, func(*Service) bool { return true }); !slices.Equal(got, want) {
				fail("ListServices = %v, want %v", got, want)
			}
			for _, pod := range a.Pods.byName {
				for _, port := range ports {
					if got, want := a.NodePortFor(pod, port), bruteNodePort(a, pod, port); got != want {
						fail("NodePortFor(%s %v, %d) = %d, want %d", pod.Name, pod.Labels, port, got, want)
					}
				}
			}
			for i := 0; i < 6; i++ {
				name := fmt.Sprintf("svc-%d", i)
				want := bruteEndpoints(c, name)
				got, ok := c.Endpoint(name)
				if ok != (len(want) > 0) || (ok && got != want[0]) {
					fail("Endpoint(%s) = %v %v, want first of %v", name, got, ok, want)
				}
				sort.SliceStable(want, func(i, j int) bool { return want[i].Addr < want[j].Addr })
				if all := c.Endpoints(name); !slices.Equal(all, want) {
					fail("Endpoints(%s) = %v, want %v", name, all, want)
				}
			}

			// Index sizes follow the store; no bucket is left empty.
			nLabels := 0
			for _, pod := range a.Pods.byName {
				nLabels += len(pod.Labels)
			}
			if got := indexSize(t, "podsByLabel", a.podsByLabel); got != nLabels {
				fail("podsByLabel holds %d entries, want %d", got, nLabels)
			}
			for what, n := range map[string][2]int{
				"podsByOwner":   {indexSize(t, "podsByOwner", a.podsByOwner), len(a.Pods.byName)},
				"podsByNode":    {indexSize(t, "podsByNode", a.podsByNode), len(a.Pods.byName)},
				"svcBySelector": {indexSize(t, "svcBySelector", a.svcBySelector), len(a.Services.byName)},
				"rsByOwner":     {indexSize(t, "rsByOwner", a.rsByOwner), len(a.ReplicaSets.byName)},
			} {
				if n[0] != n[1] {
					fail("%s holds %d entries, want %d", what, n[0], n[1])
				}
			}

			// What an earlier reader holds never changes under it.
			if !slices.Equal(held, heldPtrs) {
				fail("a held list changed after later writes")
			}
			for i, pod := range held {
				if !reflect.DeepEqual(pod, heldState[i]) {
					fail("held snapshot %s changed after later writes", pod.Name)
				}
			}
			if step%97 == 0 {
				retake()
			}
		}

		// Draining the store drains every index.
		for _, pod := range a.ListPods(nil, nil) {
			a.Pods.Delete(nil, pod.Name)
		}
		for _, s := range a.Services.List(nil) {
			a.Services.Delete(nil, s.Name)
		}
		for _, rs := range a.ReplicaSets.List(nil) {
			a.ReplicaSets.Delete(nil, rs.Name)
		}
		if n := len(a.podsByLabel) + len(a.podsByOwner) + len(a.podsByNode) + len(a.svcBySelector) + len(a.rsByOwner) + len(a.Pods.sorted.items); n != 0 {
			t.Fatalf("seed %d: %d index entries left in a drained store", seed, n)
		}
	}
}

// TestListSurvivesDeletesMidIteration is the copy-on-write contract the
// eviction loop and the ReplicaSet controller rely on: deleting while
// ranging over a list neither skips nor repeats an element.
func TestListSurvivesDeletesMidIteration(t *testing.T) {
	api := NewAPIServer(sim.New(1), APIConfig{})
	for i := 0; i < 10; i++ {
		api.CreatePod(nil, &Pod{Name: fmt.Sprintf("p%d", i), Owner: "rs", NodeName: "n1", Labels: map[string]string{"app": "x"}})
	}
	for _, c := range []struct {
		what string
		list func() []*Pod
	}{
		{"ListPods(nil)", func() []*Pod { return api.ListPods(nil, nil) }},
		{"ListPods(selector)", func() []*Pod { return api.ListPods(nil, map[string]string{"app": "x"}) }},
		{"ListPodsByOwner", func() []*Pod { return api.ListPodsByOwner(nil, "rs") }},
		{"ListPodsByNode", func() []*Pod { return api.ListPodsByNode(nil, "n1") }},
	} {
		var seen []string
		for _, pod := range c.list() {
			seen = append(seen, pod.Name)
			api.Pods.Delete(nil, pod.Name)
			api.CreatePod(nil, &Pod{Name: "a-" + pod.Name, Owner: "rs", NodeName: "n1", Labels: map[string]string{"app": "x"}})
		}
		if len(seen) != 10 || !sort.StringsAreSorted(seen) {
			t.Errorf("%s saw %v while deleting mid-iteration", c.what, seen)
		}
		for _, pod := range api.ListPods(nil, nil) { // back to p0..p9 for the next case
			api.Pods.Delete(nil, pod.Name)
			api.CreatePod(nil, &Pod{Name: strings.TrimPrefix(pod.Name, "a-"), Owner: "rs", NodeName: "n1", Labels: map[string]string{"app": "x"}})
		}
	}
}

// TestReadPathAllocations pins the read paths the hot callers sit on (the
// ScaleUp poll, the ReplicaSet reconcile, core's per-dispatch Endpoint
// query): a small constant number of allocations, whatever the store holds.
func TestReadPathAllocations(t *testing.T) {
	measure := func(pods int) (list, byOwner, endpoint float64) {
		c := newBareCluster("n1")
		for i := 0; i < pods; i++ {
			name := fmt.Sprintf("svc-%04d", i)
			c.api.Services.Create(nil, &Service{Name: name, Selector: map[string]string{"app": name}, TargetPort: 80, NodePort: 30000 + i})
			c.api.CreatePod(nil, &Pod{Name: name + "-rs-00001", Owner: name + "-rs", NodeName: "n1", Phase: PodRunning,
				Labels: map[string]string{"app": name, "tier": "edge"}})
		}
		target := fmt.Sprintf("svc-%04d", pods/2)
		selector := map[string]string{"app": target}
		list = testing.AllocsPerRun(100, func() {
			if len(c.api.ListPods(nil, selector)) != 1 {
				t.Fatal("ListPods missed the pod")
			}
		})
		byOwner = testing.AllocsPerRun(100, func() {
			if len(c.api.ListPodsByOwner(nil, target+"-rs")) != 1 {
				t.Fatal("ListPodsByOwner missed the pod")
			}
		})
		endpoint = testing.AllocsPerRun(100, func() {
			if _, ok := c.Endpoint(target); !ok {
				t.Fatal("Endpoint missed the pod")
			}
		})
		return
	}
	smallList, smallOwner, smallEndpoint := measure(10)
	list, byOwner, endpoint := measure(1000)
	for _, m := range []struct {
		what         string
		small, large float64
	}{
		{"ListPods(selector)", smallList, list},
		{"ListPodsByOwner", smallOwner, byOwner},
		{"Cluster.Endpoint", smallEndpoint, endpoint},
	} {
		if m.large > 1 || m.large != m.small {
			t.Errorf("%s: %.0f allocs on 1000 pods, %.0f on 10; want the same and at most 1", m.what, m.large, m.small)
		}
	}
}

// TestLowestNameFirstIsDeterministic repeats a 3-replica / 2-node scenario
// with two Services selecting the same pods on the same targetPort. Each node
// has room for one pod, so two replicas run and the third stays Pending (two
// pods of one Service cannot share a node: they would listen on one NodePort).
// The pre-index code answered the first two questions below from a map range;
// they must be lowest-name-first, and all three the same on every run.
func TestLowestNameFirstIsDeterministic(t *testing.T) {
	type answer struct {
		endpoint cluster.Instance
		hostPort int                 // NodePortFor via the kubelet
		alt      [2]cluster.Instance // Endpoints of the lower-named Service
	}
	run := func() answer {
		k := sim.New(1)
		n := simnet.NewNetwork(k)
		kc := New("multi", k, DefaultConfig())
		beh := cluster.StaticBehaviors{"nginx:1.23.2": {InitDelay: 10 * time.Millisecond}}
		for i, name := range []string{"n1", "n2"} {
			h := simnet.NewHost(n, name, simnet.Addr(fmt.Sprintf("10.0.%d.1", i+1)))
			regHost := simnet.NewHost(n, name+"-reg", simnet.Addr(fmt.Sprintf("10.0.%d.10", i+1)))
			r := simnet.NewRouter(n, name+"-r")
			_, hp := h.AttachTo(r, simnet.LinkConfig{Latency: time.Millisecond})
			_, rp := regHost.AttachTo(r, simnet.LinkConfig{Latency: time.Millisecond})
			r.AddRoute(h.IP(), hp)
			r.AddRoute(regHost.IP(), rp)
			srv := registry.NewServer(regHost, registry.ServerConfig{})
			srv.Add(registry.Image{Ref: "nginx:1.23.2", Layers: []registry.Layer{{Digest: "n0", Size: simnet.MiB}}})
			res := registry.NewResolver()
			res.AddPrefix("", regHost.IP())
			rt := container.NewRuntime(h, registry.NewClient(h, res, registry.DefaultClientConfig()), container.DefaultRuntimeConfig())
			kc.AddNode(name, rt, beh, Capacity{CPUMillis: 4000, MemoryBytes: 8 << 30})
		}
		kc.Start()
		def, err := spec.Parse(resourceYAML) // requests 4 cores / 8 GiB: a whole node
		if err != nil {
			t.Fatal(err)
		}
		a, err := spec.Annotate(def, spec.Registration{Domain: "web.example.com", VIP: "203.0.113.10", Port: 80}, spec.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var got answer
		k.Go("driver", func(p *sim.Proc) {
			kc.Pull(p, a)
			kc.Create(p, a)
			// A second Service, lower by name, selecting the same pods.
			kc.API().Services.Create(p, &Service{Name: "00-alt", Selector: map[string]string{"app": a.UniqueName}, TargetPort: a.TargetPort, NodePort: 31999})
			kc.SetReplicas(p, a.UniqueName, 3)
			for len(kc.Endpoints(a.UniqueName)) < 2 {
				p.Sleep(200 * time.Millisecond)
			}
			p.Sleep(5 * time.Second) // let the third pod settle as Pending
			got.endpoint, _ = kc.Endpoint(a.UniqueName)
			pods := kc.API().ListPods(nil, map[string]string{"app": a.UniqueName})
			if len(pods) != 3 || pods[2].Phase != PodPending {
				t.Errorf("pods = %+v, want two running and the third Pending", pods)
				return
			}
			got.hostPort = pods[0].HostPort
			lowest := kc.nodeByName(pods[0].NodeName).rt.Host().IP()
			if got.endpoint.Addr != lowest {
				t.Errorf("Endpoint = %v, want the lowest-named pod's node %v", got.endpoint.Addr, lowest)
			}
			if got.hostPort != 31999 {
				t.Errorf("HostPort = %d, want the lower-named Service's NodePort 31999", got.hostPort)
			}
			alt, svc := kc.Endpoints("00-alt"), kc.Endpoints(a.UniqueName)
			if len(alt) != 2 || len(svc) != 2 {
				t.Errorf("endpoints = %+v / %+v, want two each", alt, svc)
				return
			}
			for i := range alt {
				if alt[i].Port != 31999 || alt[i].Addr != svc[i].Addr || svc[i].Port == 31999 {
					t.Errorf("endpoints = %+v / %+v, want the same pods on each Service's own NodePort", alt, svc)
				}
			}
			copy(got.alt[:], alt)
		})
		k.RunUntil(5 * time.Minute)
		return got
	}
	first := run()
	if first.endpoint.Addr == "" {
		t.Fatal("scenario never reached two running replicas")
	}
	for i := 1; i < 50 && !t.Failed(); i++ {
		if got := run(); got != first {
			t.Fatalf("run %d answered %+v, run 0 answered %+v", i, got, first)
		}
	}
}
