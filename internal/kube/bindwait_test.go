package kube

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"transparentedge/internal/cluster"
	"transparentedge/internal/container"
	"transparentedge/internal/faults"
	"transparentedge/internal/sim"
	"transparentedge/internal/spec"
)

// pollLoopScaleUp is ScaleUp as it ran before bindWait: after the same
// deployment update it lists the service's pods from the calling process and
// sleeps the bind poll interval between lists, without bound, and a crashing pod's
// watcher is a process (crashPodLoop). Kept as the oracle
// TestBindWaitMatchesPollLoop compares the passes against.
func pollLoopScaleUp(c *Cluster, p *sim.Proc, name string) (cluster.Instance, error) {
	if _, ok := c.services[name]; !ok {
		return cluster.Instance{}, fmt.Errorf("%w: %s", cluster.ErrNotCreated, name)
	}
	c.ops.ScaleUp++
	if err := c.faults.ScaleUpError(); err != nil {
		return cluster.Instance{}, err
	}
	p.Sleep(c.api.t.request)
	d, err := c.api.Deployments.Get(name)
	if err != nil {
		return cluster.Instance{}, err
	}
	if d.Replicas < 1 {
		d = d.clone()
		d.Replicas = 1
		p.Sleep(c.api.t.request)
		if err := c.api.Deployments.Update(d); err != nil {
			return cluster.Instance{}, err
		}
	}
	p.Sleep(c.api.t.request)
	svc, err := c.api.Services.Get(name)
	if err != nil {
		return cluster.Instance{}, err
	}
	selector := map[string]string{"app": name}
	for {
		pay(p, c.api)
		for _, pod := range c.api.ListPods(selector) {
			if pod.NodeName != c.node.name {
				continue
			}
			if c.faults.CrashAfterStart() {
				crashPodLoop(c, pod.Name, name)
			}
			return cluster.Instance{
				Service: name,
				Cluster: c.name,
				Addr:    c.node.rt.Host().IP(),
				Port:    svc.NodePort,
			}, nil
		}
		p.Sleep(c.api.t.bindPoll)
	}
}

// crashPodLoop is Cluster.crashPod's watcher as a process.
func crashPodLoop(c *Cluster, podName, svcName string) {
	c.api.k.Go("faultcrash:"+c.name+":"+podName, func(p *sim.Proc) {
		deadline := p.Now() + 30*time.Second
		for p.Now() < deadline {
			killed := false
			for _, ctr := range c.node.rt.List(map[string]string{"app": svcName}) {
				if !strings.HasPrefix(ctr.Name(), podName+".") {
					continue
				}
				if ctr.State() == container.StateRunning {
					_ = ctr.Kill()
					killed = true
				}
			}
			if killed {
				return
			}
			p.Sleep(100 * time.Millisecond)
		}
	})
}

// scaleUpResult is what one ScaleUp call returned, and when.
type scaleUpResult struct {
	Service string
	At      sim.Time
	Inst    cluster.Instance
	Err     string
}

// bindWaitWorld deploys three services from three staggered processes on a
// fresh rig — half of the started pods crash — and reports each ScaleUp's
// result, how many crashes the injector drew, and when each container of the
// node became ready.
func bindWaitWorld(t *testing.T, mutate func(*Cluster), scaleUp func(*Cluster, *sim.Proc, string) (cluster.Instance, error)) (results []scaleUpResult, crashes int, readyAt map[string]sim.Time) {
	t.Helper()
	r := newRig(t, mutate)
	fired := withFaults(r, faults.ClusterSpec{CrashProb: 0.5}) // crashes are the only faults
	for i, domain := range []string{"a.example.com", "b.example.com", "c.example.com"} {
		a := annotated(t, domain)
		delay := time.Duration(i) * 7 * time.Millisecond
		r.k.Go("driver:"+domain, func(p *sim.Proc) {
			p.Sleep(delay)
			if err := r.kc.Pull(p, a); err != nil {
				t.Errorf("pull %s: %v", domain, err)
				return
			}
			if err := r.kc.Create(p, a); err != nil {
				t.Errorf("create %s: %v", domain, err)
				return
			}
			inst, err := scaleUp(r.kc, p, a.UniqueName)
			res := scaleUpResult{Service: a.UniqueName, At: p.Now(), Inst: inst}
			if err != nil {
				res.Err = err.Error()
			}
			results = append(results, res)
		})
	}
	r.k.RunUntil(2 * time.Minute)
	readyAt = make(map[string]sim.Time)
	for _, ctr := range r.rt.List(nil) {
		readyAt[ctr.Name()] = ctr.ReadyAt()
	}
	return results, int(fired()), readyAt
}

// TestBindWaitMatchesPollLoop: ScaleUp's bind wait is indistinguishable from
// the poll loop it replaced — every call returns the same instance at the
// same nanosecond, the crash-after-start injector is consulted as often and
// with the same outcomes, and the pods come up at the same instants — with
// and without an API request latency, and whether the bind lands between two
// lists or (1 ms poll grid, whole-millisecond latencies) exactly on one.
func TestBindWaitMatchesPollLoop(t *testing.T) {
	for _, tc := range []struct {
		requestLatency, poll, binding time.Duration
	}{
		{requestLatency, bindPollInterval, bindingDelay}, // the calibration
		{0, 50 * time.Millisecond, 350 * time.Millisecond},
		{0, time.Millisecond, 350 * time.Millisecond}, // every bind lands on a list
		{4 * time.Millisecond, time.Millisecond, 63 * time.Millisecond},
		{15 * time.Millisecond, 7 * time.Millisecond, 100 * time.Millisecond},
		{3 * time.Millisecond, 0, 350 * time.Millisecond}, // back-to-back lists
	} {
		mutate := func(c *Cluster) {
			c.api.t.request, c.api.t.bindPoll, c.api.t.binding = tc.requestLatency, tc.poll, tc.binding
		}
		want, wantCrashes, wantReady := bindWaitWorld(t, mutate, pollLoopScaleUp)
		got, gotCrashes, gotReady := bindWaitWorld(t, mutate, (*Cluster).ScaleUp)
		if len(want) != 3 {
			t.Fatalf("%+v: the reference loop returned %d of 3 scale-ups", tc, len(want))
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%+v: scale-ups\n got %+v\nwant %+v", tc, got, want)
		}
		if gotCrashes != wantCrashes {
			t.Errorf("%+v: %d crash-after-start draws fired, reference %d", tc, gotCrashes, wantCrashes)
		}
		if !reflect.DeepEqual(gotReady, wantReady) {
			t.Errorf("%+v: container ready instants\n got %v\nwant %v", tc, gotReady, wantReady)
		}
	}
}

// TestScaleUpBindTimeout: a pod that requests more CPU than the node has is
// parked in the scheduler's unschedulable set, and ScaleUp gives up with
// ErrBindTimeout at the first list at or after the bound instead of polling
// forever.
func TestScaleUpBindTimeout(t *testing.T) {
	r := newRig(t, nil)
	def, err := spec.Parse(strings.Replace(resourceYAML, "cpu: 4", "cpu: 16", 1))
	if err != nil {
		t.Fatal(err)
	}
	a, err := spec.Annotate(def, spec.Registration{Domain: "heavy.example.com", VIP: "203.0.113.10", Port: 80}, spec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Containers[0].CPUMillis <= nodeCPUMillis {
		t.Fatalf("the pod requests %d millicores, want more than the node's %d", a.Containers[0].CPUMillis, nodeCPUMillis)
	}
	var start, end sim.Time
	r.k.Go("driver", func(p *sim.Proc) {
		if perr := r.kc.Pull(p, a); perr != nil {
			t.Errorf("pull: %v", perr)
			return
		}
		if cerr := r.kc.Create(p, a); cerr != nil {
			t.Errorf("create: %v", cerr)
			return
		}
		start = p.Now()
		_, err = r.kc.ScaleUp(p, a.UniqueName)
		end = p.Now()
	})
	r.k.RunUntil(20 * time.Minute)
	if !errors.Is(err, ErrBindTimeout) {
		t.Fatalf("ScaleUp err = %v, want ErrBindTimeout", err)
	}
	// Three API requests precede the wait; each list then costs one request
	// latency and is followed by one poll interval.
	lat, poll := r.kc.api.t.request, r.kc.api.t.bindPoll
	waitFrom := 3 * lat
	at := waitFrom + lat
	for at < waitFrom+bindMaxWait {
		at += poll + lat
	}
	if got := time.Duration(end - start); got != at {
		t.Errorf("ScaleUp gave up after %v, want %v", got, at)
	}
	if pods := r.kc.API().ListPods(map[string]string{"app": a.UniqueName}); len(pods) != 1 || pods[0].NodeName != "" {
		t.Errorf("pods = %+v, want one unbound pod", pods)
	}
}

// TestCrashWatchMatchesProcLoop: the crash watcher as a pass kills what its
// process did, when it did. The watcher is started at the very instant the
// pod's container comes up, from an event that runs before the container's
// start: the first scan, one zero-delay event later, finds it running, and
// the kill leaves it never ready. Started 1–250 ms earlier, the watcher finds
// it on a later 100 ms poll, after it has become ready.
func TestCrashWatchMatchesProcLoop(t *testing.T) {
	world := func(crash func(c *Cluster, pod, svc string), early time.Duration, runningAt sim.Time) (runningAtOut, readyAt sim.Time, state container.State) {
		r := newRig(t, nil)
		a := annotated(t, "web.example.com")
		r.k.Go("driver", func(p *sim.Proc) {
			r.kc.Pull(p, a)
			r.kc.Create(p, a)
			r.kc.ScaleUp(p, a.UniqueName)
		})
		if runningAt > 0 {
			r.k.At(runningAt-early, func() {
				pod := r.kc.API().ListPods(map[string]string{"app": a.UniqueName})[0]
				crash(r.kc, pod.Name, a.UniqueName)
			})
		}
		r.k.RunUntil(time.Minute)
		ctr := r.rt.List(nil)[0]
		return ctr.ReadyAt() - ctr.Config().InitDelay, ctr.ReadyAt(), ctr.State()
	}
	runningAt, _, _ := world(nil, 0, 0)
	for _, early := range []time.Duration{0, time.Millisecond, 100 * time.Millisecond, 250 * time.Millisecond} {
		_, wantReady, wantState := world(crashPodLoop, early, runningAt)
		_, gotReady, gotState := world((*Cluster).crashPod, early, runningAt)
		if gotReady != wantReady || gotState != wantState {
			t.Errorf("watcher started %v before the container runs: ready at %v, %v; the process watcher: %v, %v",
				early, gotReady, gotState, wantReady, wantState)
		}
		if early == 0 && wantReady != 0 {
			t.Errorf("watcher started as the container runs: the reference let it become ready at %v", wantReady)
		}
	}
}
