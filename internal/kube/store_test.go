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
// owns every write) whose node is n1.
func newBareCluster() *Cluster {
	k := sim.New(1)
	h := simnet.NewHost(simnet.NewNetwork(k), "n1", "10.0.1.1")
	rt := container.NewRuntime(h, registry.NewClient(h, registry.NewResolver()))
	kc := New("bare", k, Config{}, "n1", rt, cluster.StaticBehaviors{})
	kc.api.t = calibration{}
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
	for range brutePods(c.api, func(p *Pod) bool {
		return p.Phase == PodRunning && p.NodeName == c.node.name && MatchLabels(p.Labels, svc.Selector)
	}) {
		out = append(out, cluster.Instance{Service: name, Cluster: c.name, Addr: c.node.rt.Host().IP(), Port: svc.NodePort})
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

// TestRequestedMatchesNodeScan: the per-node request totals the Pods reindex
// hook keeps, which the scheduler's fit check reads, equal the sum over the
// pods the node index holds, after every step of a seeded mix of creates
// (bound and not), binds, rebinds, spec changes and deletes.
func TestRequestedMatchesNodeScan(t *testing.T) {
	nodeNames := []string{"", "n1", "n2"}
	for _, seed := range []int64{1, 7, 42} {
		rng := rand.New(rand.NewSource(seed))
		a := newBareCluster().api
		podName := func() string { return fmt.Sprintf("p%d", rng.Intn(40)) }
		template := func() PodTemplate {
			var t PodTemplate
			for i := rng.Intn(3); i > 0; i-- {
				t.Containers = append(t.Containers, spec.ContainerSpec{
					Name: fmt.Sprintf("c%d", i), CPUMillis: int64(rng.Intn(2000)), MemoryBytes: int64(rng.Intn(1 << 30)),
				})
			}
			return t
		}
		for step := 0; step < 3000; step++ {
			switch op := rng.Intn(6); op {
			case 0:
				a.CreatePod(&Pod{Name: podName(), Spec: template(), NodeName: nodeNames[rng.Intn(3)]})
			case 1, 2: // bind, rebind or unbind
				if pod, err := a.Pods.Get(podName()); err == nil {
					pod = pod.clone()
					pod.NodeName = nodeNames[rng.Intn(3)]
					a.Pods.Update(pod)
				}
			case 3: // a new spec in place
				if pod, err := a.Pods.Get(podName()); err == nil {
					pod = pod.clone()
					pod.Spec = template()
					a.Pods.Update(pod)
				}
			default:
				a.Pods.Delete(podName())
			}
			for _, node := range nodeNames[1:] {
				var want requests
				for _, pod := range a.podsByNode[node].scan() {
					cpu, mem := podRequests(pod.Spec)
					want.cpu += cpu
					want.mem += mem
				}
				if got := a.requested[node]; got != want {
					t.Fatalf("seed %d step %d: node %s requested %+v, its pods sum to %+v", seed, step, node, got, want)
				}
			}
		}
	}
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
	nodeNames := []string{"", "n1", "n2", "ghost"} // n2, ghost: bound to nodes the cluster lacks
	ports := []int{80, 8080}
	for _, seed := range []int64{1, 2, 3, 42} {
		rng := rand.New(rand.NewSource(seed))
		c := newBareCluster()
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
			held = a.ListPods(nil)
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
				a.CreatePod(&Pod{Name: podName(), Owner: pick(owners), Labels: labels(), NodeName: pick(nodeNames)})
			case 2, 3: // relabel / re-own
				if pod, err := a.Pods.Get(podName()); err == nil {
					pod = pod.clone()
					pod.Labels, pod.Owner = labels(), pick(owners)
					a.Pods.Update(pod)
				}
			case 4, 5: // bind and run, or unbind
				if pod, err := a.Pods.Get(podName()); err == nil {
					pod = pod.clone()
					pod.NodeName = pick(nodeNames)
					pod.Phase = []PodPhase{PodPending, PodRunning}[rng.Intn(2)]
					a.Pods.Update(pod)
				}
			case 6:
				a.Pods.Delete(podName())
			case 7:
				a.Services.Create(&Service{Name: svcName(), Selector: labels(), TargetPort: ports[rng.Intn(2)], NodePort: 30000 + rng.Intn(1000)})
			case 8:
				a.Services.Delete(svcName())
			case 9:
				name := pick(rsNames)
				if rs, err := a.ReplicaSets.Get(name); err != nil {
					a.ReplicaSets.Create(&ReplicaSet{Name: name, Replicas: rng.Intn(3)})
				} else if rng.Intn(2) == 0 {
					rs = rs.clone()
					rs.Replicas = rng.Intn(3)
					a.ReplicaSets.Update(rs)
				} else {
					a.ReplicaSets.Delete(name)
				}
			}
			fail := func(format string, args ...any) {
				t.Helper()
				t.Fatalf("seed %d step %d: %s", seed, step, fmt.Sprintf(format, args...))
			}

			// Every list equals the brute-force answer.
			if got, want := a.ListPods(nil), brutePods(a, func(*Pod) bool { return true }); !slices.Equal(got, want) {
				fail("ListPods(nil) = %v, want %v", got, want)
			}
			for _, k1 := range keys {
				for _, v1 := range values {
					one := map[string]string{k1: v1}
					if got, want := a.ListPods(one), brutePods(a, func(p *Pod) bool { return MatchLabels(p.Labels, one) }); !slices.Equal(got, want) {
						fail("ListPods(%v) = %v, want %v", one, got, want)
					}
					two := map[string]string{k1: v1, pick(keys): pick(values)}
					if got, want := a.ListPods(two), brutePods(a, func(p *Pod) bool { return MatchLabels(p.Labels, two) }); !slices.Equal(got, want) {
						fail("ListPods(%v) = %v, want %v", two, got, want)
					}
				}
			}
			for _, owner := range owners {
				if got, want := a.ListPodsByOwner(owner), brutePods(a, func(p *Pod) bool { return p.Owner == owner }); !slices.Equal(got, want) {
					fail("ListPodsByOwner(%q) = %v, want %v", owner, got, want)
				}
			}
			for _, node := range nodeNames {
				if got, want := a.podsByNode[node].view(), brutePods(a, func(p *Pod) bool { return p.NodeName == node }); !slices.Equal(got, want) {
					fail("podsByNode[%q] = %v, want %v", node, got, want)
				}
			}
			if got, want := a.Services.List(), bruteServices(a, func(*Service) bool { return true }); !slices.Equal(got, want) {
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
		for _, pod := range a.ListPods(nil) {
			a.Pods.Delete(pod.Name)
		}
		for _, s := range a.Services.List() {
			a.Services.Delete(s.Name)
		}
		for _, rs := range a.ReplicaSets.List() {
			a.ReplicaSets.Delete(rs.Name)
		}
		if n := len(a.podsByLabel) + len(a.podsByOwner) + len(a.podsByNode) + len(a.svcBySelector) + len(a.Pods.sorted.items); n != 0 {
			t.Fatalf("seed %d: %d index entries left in a drained store", seed, n)
		}
	}
}

// TestListSurvivesDeletesMidIteration is the copy-on-write contract the
// ReplicaSet controller relies on: deleting while ranging over a list neither
// skips nor repeats an element.
func TestListSurvivesDeletesMidIteration(t *testing.T) {
	api := newBareAPIServer(sim.New(1))
	for i := 0; i < 10; i++ {
		api.CreatePod(&Pod{Name: fmt.Sprintf("p%d", i), Owner: "rs", NodeName: "n1", Labels: map[string]string{"app": "x"}})
	}
	for _, c := range []struct {
		what string
		list func() []*Pod
	}{
		{"ListPods(nil)", func() []*Pod { return api.ListPods(nil) }},
		{"ListPods(selector)", func() []*Pod { return api.ListPods(map[string]string{"app": "x"}) }},
		{"ListPodsByOwner", func() []*Pod { return api.ListPodsByOwner("rs") }},
		{"podsByNode", func() []*Pod { return api.podsByNode["n1"].view() }},
	} {
		var seen []string
		for _, pod := range c.list() {
			seen = append(seen, pod.Name)
			api.Pods.Delete(pod.Name)
			api.CreatePod(&Pod{Name: "a-" + pod.Name, Owner: "rs", NodeName: "n1", Labels: map[string]string{"app": "x"}})
		}
		if len(seen) != 10 || !sort.StringsAreSorted(seen) {
			t.Errorf("%s saw %v while deleting mid-iteration", c.what, seen)
		}
		for _, pod := range api.ListPods(nil) { // back to p0..p9 for the next case
			api.Pods.Delete(pod.Name)
			api.CreatePod(&Pod{Name: strings.TrimPrefix(pod.Name, "a-"), Owner: "rs", NodeName: "n1", Labels: map[string]string{"app": "x"}})
		}
	}
}

// TestReadPathAllocations pins the read paths the hot callers sit on (the
// ScaleUp poll, the ReplicaSet reconcile, core's per-dispatch Endpoint
// query): a small constant number of allocations, whatever the store holds.
func TestReadPathAllocations(t *testing.T) {
	measure := func(pods int) (list, byOwner, endpoint float64) {
		c := newBareCluster()
		for i := 0; i < pods; i++ {
			name := fmt.Sprintf("svc-%04d", i)
			c.api.Services.Create(&Service{Name: name, Selector: map[string]string{"app": name}, TargetPort: 80, NodePort: 30000 + i})
			c.api.CreatePod(&Pod{Name: name + "-rs-00001", Owner: name + "-rs", NodeName: "n1", Phase: PodRunning,
				Labels: map[string]string{"app": name, "tier": "edge"}})
		}
		target := fmt.Sprintf("svc-%04d", pods/2)
		selector := map[string]string{"app": target}
		list = testing.AllocsPerRun(100, func() {
			if len(c.api.ListPods(selector)) != 1 {
				t.Fatal("ListPods missed the pod")
			}
		})
		byOwner = testing.AllocsPerRun(100, func() {
			if len(c.api.ListPodsByOwner(target+"-rs")) != 1 {
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

// kubeletWithPods returns a bare API server holding n running pods bound to
// node n1, and a kubelet of n1 that tracks every one of them.
func kubeletWithPods(n int) *kubelet {
	api := newBareAPIServer(sim.New(1))
	kl := &kubelet{api: api, nodeName: "n1", pods: make(map[string]*podWorker)}
	kl.Init(api.k, kl, api.t.request)
	for i := 0; i < n; i++ {
		pod, _ := api.CreatePod(&Pod{Name: fmt.Sprintf("p%04d", i), Owner: "rs", NodeName: "n1", Phase: PodRunning,
			Labels: map[string]string{"app": fmt.Sprintf("svc-%04d", i)}})
		kl.pods[pod.Name] = &podWorker{kl: kl, pod: pod}
	}
	return kl
}

// TestNodeReadsCopyNothing: the resync and the scheduler's capacity sum read
// the node's pods in place, so the next pod write does not copy the node's
// pod list. A resync pass and a bind read followed by one pod Update allocate
// what the Update alone does, whatever the node holds.
func TestNodeReadsCopyNothing(t *testing.T) {
	for _, n := range []int{10, 1000} {
		kl := kubeletWithPods(n)
		api := kl.api
		s := &scheduler{api: api, node: "n1", inflight: map[string]bool{}, unschedulable: map[string]bool{}}
		big := &Pod{Name: "big", Spec: PodTemplate{Containers: []spec.ContainerSpec{{Name: "c", CPUMillis: 1000}}}}
		b := &binding{s: s, name: big.Name, pod: big} // more than the bare node holds: it parks
		update := func() {
			pod := api.Pods.byName["p0000"].clone()
			pod.HostPort++
			api.Pods.Update(pod)
		}
		alone := testing.AllocsPerRun(100, update)
		withReads := testing.AllocsPerRun(100, func() {
			resync(kl)
			bindFit(b)
			update()
		})
		if withReads != alone {
			t.Errorf("%d pods: resync, bind read and Update allocate %.0f, the Update alone %.0f; want the same", n, withReads, alone)
		}
		if !s.unschedulable[big.Name] {
			t.Errorf("%d pods: the oversized pod was not parked", n)
		}
	}
}

// BenchmarkKubeletResync is one resync pass over a node of 800 running pods,
// all tracked, as on cold-hybrid, at 0 allocs/op. caught-up: the kubelet has
// heard every pod write, so the pass walks nothing. in-flight: a pod event is
// still on its way, so the pass reads the node's pods in place for Pending
// ones; every departure was heard, so it walks no tracked pod.
func BenchmarkKubeletResync(b *testing.B) {
	for _, c := range []struct {
		name   string
		behind int
	}{{"caught-up", 0}, {"in-flight", 1}} {
		b.Run(c.name, func(b *testing.B) {
			kl := kubeletWithPods(800)
			kl.heard = kl.api.podWrites - c.behind
			b.ReportAllocs()
			for b.Loop() {
				resync(kl)
			}
		})
	}
}

// TestLowestNameFirstIsDeterministic repeats a 2-replica scenario with two
// Services selecting the same pods on the same targetPort. The node has room
// for one whole pod, so one replica runs and the second stays Pending (two
// pods of one Service cannot share the node: they would listen on one
// NodePort). The pre-index code answered the pod's NodePort from a map range;
// it must be the lowest-named Service's, and every answer the same on every
// run.
func TestLowestNameFirstIsDeterministic(t *testing.T) {
	type answer struct {
		endpoint cluster.Instance
		hostPort int              // NodePortFor via the kubelet
		alt      cluster.Instance // Endpoint of the lower-named Service
	}
	run := func() answer {
		rg := newRig(t, func(c *Cluster) { c.api.t.nodeCPU, c.api.t.nodeMem = 4000, 8<<30 })
		k, kc := rg.k, rg.kc
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
			p.Sleep(kc.api.t.request)
			kc.API().Services.Create(&Service{Name: "00-alt", Selector: map[string]string{"app": a.UniqueName}, TargetPort: a.TargetPort, NodePort: 31999})
			p.Sleep(kc.api.t.request)
			d, _ := kc.API().Deployments.Get(a.UniqueName)
			d = d.clone()
			d.Replicas = 2
			p.Sleep(kc.api.t.request)
			kc.API().Deployments.Update(d)
			for runningPods(kc, a.UniqueName) < 1 {
				p.Sleep(200 * time.Millisecond)
			}
			p.Sleep(5 * time.Second) // let the second pod settle as Pending
			got.endpoint, _ = kc.Endpoint(a.UniqueName)
			pods := kc.API().ListPods(map[string]string{"app": a.UniqueName})
			if len(pods) != 2 || pods[0].Phase != PodRunning || pods[1].Phase != PodPending || pods[1].NodeName != "" {
				t.Errorf("pods = %+v, want the first running and the second Pending", pods)
				return
			}
			got.hostPort = pods[0].HostPort
			if got.endpoint.Addr != rg.node.IP() {
				t.Errorf("Endpoint = %v, want the node %v", got.endpoint.Addr, rg.node.IP())
			}
			if got.hostPort != 31999 {
				t.Errorf("HostPort = %d, want the lower-named Service's NodePort 31999", got.hostPort)
			}
			got.alt, _ = kc.Endpoint("00-alt")
			if got.alt.Port != 31999 || got.alt.Addr != got.endpoint.Addr || got.endpoint.Port == 31999 {
				t.Errorf("endpoints = %+v / %+v, want the same pod on each Service's own NodePort", got.alt, got.endpoint)
			}
		})
		k.RunUntil(5 * time.Minute)
		return got
	}
	first := run()
	if first.endpoint.Addr == "" {
		t.Fatal("scenario never reached a running replica")
	}
	for i := 1; i < 50 && !t.Failed(); i++ {
		if got := run(); got != first {
			t.Fatalf("run %d answered %+v, run 0 answered %+v", i, got, first)
		}
	}
}
