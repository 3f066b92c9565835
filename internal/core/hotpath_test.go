package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"transparentedge/internal/cluster"
	"transparentedge/internal/openflow"
	"transparentedge/internal/sim"
	"transparentedge/internal/simnet"
	"transparentedge/internal/spec"
)

const hotpathYAML = `
spec:
  template:
    spec:
      containers:
      - name: web
        image: web:1
        ports:
        - containerPort: 80
`

// hpCluster is a minimal in-memory Cluster for controller hot-path
// tests: phases cost fixed virtual time and the endpoint is a real simnet
// listener so the controller's readiness probing works.
type hpCluster struct {
	name       string
	host       *simnet.Host
	port       int
	images     bool
	exists     bool
	running    bool
	lis        *simnet.Listener
	scaleDelay time.Duration
	// failScaleUps makes that many ScaleUp calls fail (after the delay)
	// before the next one succeeds.
	failScaleUps int
	scaleUps     int
	// crashStarts makes that many ScaleUp calls "succeed" without the port
	// ever opening (the injected crash-after-start shape: the instance is
	// returned but only readiness probing discovers it is dead).
	crashStarts int
	// failScaleDowns makes that many ScaleDown calls fail, leaving the
	// instance running.
	failScaleDowns int
	scaleDowns     int
}

func (f *hpCluster) Name() string                   { return f.name }
func (f *hpCluster) HasImages(*spec.Annotated) bool { return f.images }
func (f *hpCluster) Pull(p *sim.Proc, a *spec.Annotated) error {
	f.images = true
	return nil
}
func (f *hpCluster) Exists(string) bool  { return f.exists }
func (f *hpCluster) Running(string) bool { return f.running }
func (f *hpCluster) Create(p *sim.Proc, a *spec.Annotated) error {
	f.exists = true
	return nil
}

func (f *hpCluster) ScaleUp(p *sim.Proc, service string) (cluster.Instance, error) {
	f.scaleUps++
	if f.scaleDelay > 0 {
		p.Sleep(f.scaleDelay)
	}
	if f.failScaleUps > 0 {
		f.failScaleUps--
		return cluster.Instance{}, errors.New("fake: scale-up failed")
	}
	f.running = true
	if f.crashStarts > 0 {
		f.crashStarts--
		return f.instance(service), nil
	}
	if f.lis == nil {
		f.lis = f.host.ServeHTTPAsync(f.port, cluster.Behavior{RespSize: simnet.KiB}.AsyncHandler())
	}
	return f.instance(service), nil
}

func (f *hpCluster) ScaleDown(p *sim.Proc, service string) error {
	f.scaleDowns++
	if f.failScaleDowns > 0 {
		f.failScaleDowns--
		return errors.New("fake: scale-down failed")
	}
	f.running = false
	if f.lis != nil {
		f.lis.Close()
		f.lis = nil
	}
	return nil
}

func (f *hpCluster) Remove(p *sim.Proc, service string) error {
	_ = f.ScaleDown(p, service)
	f.exists = false
	return nil
}

func (f *hpCluster) Endpoint(service string) (cluster.Instance, bool) {
	if !f.running {
		return cluster.Instance{}, false
	}
	return f.instance(service), true
}

func (f *hpCluster) Services() []string { return nil }

func (f *hpCluster) instance(service string) cluster.Instance {
	return cluster.Instance{Service: service, Cluster: f.name, Addr: f.host.IP(), Port: f.port}
}

// hotpathRig is a single-switch topology with N fake clusters and M
// clients, built directly in package core so tests can reach the
// controller's internal state (deployer.pending, cookie map, ...).
type hotpathRig struct {
	k        *sim.Kernel
	n        *simnet.Network
	sw       *openflow.Switch
	egs      *simnet.Host
	ctrl     *Controller
	clusters []*hpCluster
	clients  []*simnet.Host
	svc      *spec.Annotated
}

func newHotpathRig(t testing.TB, numClusters, numClients int, cfg Config) *hotpathRig {
	t.Helper()
	k := sim.New(1)
	n := simnet.NewNetwork(k)
	rg := &hotpathRig{k: k, n: n}
	rg.sw = openflow.NewSwitch(n, "sw", openflow.DefaultConfig())
	link := simnet.LinkConfig{Latency: 100 * time.Microsecond, Bandwidth: simnet.Gbps}

	rg.egs = simnet.NewHost(n, "egs", "10.0.0.10")
	rg.sw.AttachHost(rg.egs, 1, link)

	for i := 0; i < numClusters; i++ {
		h := simnet.NewHost(n, fmt.Sprintf("edge%d", i), simnet.Addr(fmt.Sprintf("10.0.2.%d", i+1)))
		rg.sw.AttachHost(h, 100+i, link)
		rg.clusters = append(rg.clusters, &hpCluster{
			name: fmt.Sprintf("fc%d", i), host: h, port: 32000, images: true,
			scaleDelay: 50 * time.Millisecond,
		})
	}
	for i := 0; i < numClients; i++ {
		h := simnet.NewHost(n, fmt.Sprintf("ue%d", i), simnet.Addr(fmt.Sprintf("10.0.1.%d", i+1)))
		rg.sw.AttachHost(h, 200+i, link)
		rg.clients = append(rg.clients, h)
	}

	rg.ctrl = New(k, rg.egs, cfg)
	rg.ctrl.AddSwitch(rg.sw)
	for _, fc := range rg.clusters {
		rg.ctrl.AddCluster(fc, "docker")
	}
	a, err := rg.ctrl.RegisterService(hotpathYAML, spec.Registration{
		Domain: "web.example.com", VIP: "203.0.113.10", Port: 80,
	})
	if err != nil {
		t.Fatal(err)
	}
	rg.svc = a
	return rg
}

// TestConcurrentDispatchDedup: N simultaneous packet-ins for one cold
// service must share a single deployment — one DeployRecord, one
// Deployments increment, one ScaleUp, and every client pointed at the
// same instance.
func TestConcurrentDispatchDedup(t *testing.T) {
	rg := newHotpathRig(t, 1, 5, Config{})
	rg.clusters[0].scaleDelay = 200 * time.Millisecond
	okCount := 0
	for _, cli := range rg.clients {
		cli := cli
		rg.k.Go("ue", func(p *sim.Proc) {
			if _, err := cli.HTTPGet(p, "203.0.113.10", 80, &simnet.HTTPRequest{}, 0); err != nil {
				t.Errorf("%s: %v", cli.IP(), err)
				return
			}
			okCount++
		})
	}
	rg.k.RunUntil(time.Minute)
	if okCount != 5 {
		t.Fatalf("served = %d, want 5", okCount)
	}
	if got := rg.clusters[0].scaleUps; got != 1 {
		t.Errorf("ScaleUp calls = %d, want 1 (deduped)", got)
	}
	if got := rg.ctrl.Stats.Deployments; got != 1 {
		t.Errorf("Stats.Deployments = %d, want 1 (joiners must not double-count)", got)
	}
	if recs := rg.ctrl.Records(); len(recs) != 1 {
		t.Errorf("DeployRecords = %d, want 1", len(recs))
	}
	entries := rg.ctrl.Memory.Entries()
	if len(entries) != 5 {
		t.Fatalf("memory entries = %d, want 5", len(entries))
	}
	for _, e := range entries {
		if e.Instance != rg.clusters[0].instance(rg.svc.UniqueName) {
			t.Errorf("client %s at %+v, want the shared instance", e.Key.Client, e.Instance)
		}
	}
}

// TestFailedDeploymentAllowsRetry: a failed deployment must leave
// deployer.pending clean (both for the initiator and for a concurrent
// joiner) so a later retry succeeds.
func TestFailedDeploymentAllowsRetry(t *testing.T) {
	rg := newHotpathRig(t, 1, 0, Config{})
	fc := rg.clusters[0]
	fc.failScaleUps = 1

	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		i := i
		rg.k.Go("deployer", func(p *sim.Proc) {
			_, errs[i] = rg.ctrl.EnsureDeployed(p, fc.name, rg.svc.UniqueName)
		})
	}
	rg.k.RunUntil(time.Second)
	for i, err := range errs {
		if err == nil {
			t.Fatalf("caller %d: deployment succeeded, want failure", i)
		}
	}
	if n := len(rg.ctrl.deploy.pending); n != 0 {
		t.Fatalf("deployer.pending = %d entries after failure, want 0", n)
	}

	var retryErr error
	var inst cluster.Instance
	rg.k.Go("retry", func(p *sim.Proc) {
		inst, retryErr = rg.ctrl.EnsureDeployed(p, fc.name, rg.svc.UniqueName)
	})
	rg.k.RunUntil(time.Minute)
	if retryErr != nil {
		t.Fatalf("retry failed: %v", retryErr)
	}
	if inst != fc.instance(rg.svc.UniqueName) {
		t.Fatalf("retry instance = %+v", inst)
	}
	if n := len(rg.ctrl.deploy.pending); n != 0 {
		t.Fatalf("deployer.pending = %d entries after retry, want 0", n)
	}
	if ok := rg.ctrl.RecordsFor(fc.name, ""); len(ok) != 1 {
		t.Fatalf("successful records = %d, want 1", len(ok))
	}
}

// TestControllerStateGC: cookies, client locations, and memory entries
// must drain back to zero once switch flows and memorized flows idle out
// (the regression for the unbounded cookies/clientLoc maps).
func TestControllerStateGC(t *testing.T) {
	cfg := Config{}
	cfg.SwitchIdleTimeout = time.Second
	cfg.MemoryIdleTimeout = 3 * time.Second
	rg := newHotpathRig(t, 1, 3, cfg)
	for i, cli := range rg.clients {
		cli, i := cli, i
		rg.k.Go("ue", func(p *sim.Proc) {
			p.Sleep(time.Duration(i) * 100 * time.Millisecond)
			if _, err := cli.HTTPGet(p, "203.0.113.10", 80, &simnet.HTTPRequest{}, 0); err != nil {
				t.Errorf("%s: %v", cli.IP(), err)
			}
		})
	}
	rg.k.RunUntil(time.Second)
	if rg.ctrl.CookieCount() == 0 || rg.ctrl.TrackedClients() == 0 || rg.ctrl.Memory.Len() == 0 {
		t.Fatalf("mid-run state: cookies=%d clients=%d memory=%d, want all > 0",
			rg.ctrl.CookieCount(), rg.ctrl.TrackedClients(), rg.ctrl.Memory.Len())
	}
	rg.k.RunUntil(30 * time.Second)
	if n := rg.ctrl.CookieCount(); n != 0 {
		t.Errorf("cookies = %d after idle timeouts, want 0", n)
	}
	if n := rg.ctrl.TrackedClients(); n != 0 {
		t.Errorf("client locations = %d after idle timeouts, want 0", n)
	}
	if n := rg.ctrl.Memory.Len(); n != 0 {
		t.Errorf("memory entries = %d after idle timeouts, want 0", n)
	}
}

// TestStaleFlowRemovedKeepsClient: a cloud-forwarded client (no memorized
// flows) whose pair idles out while a dispatch re-installs it under a newer
// cookie. The old pair's flow-removed arrives after the new pair is live; it
// is stale and must not evict the client's location record or cookie.
func TestStaleFlowRemovedKeepsClient(t *testing.T) {
	cfg := Config{}
	cfg.SwitchIdleTimeout = time.Second
	rg := newHotpathRig(t, 0, 1, cfg) // no cluster: every dispatch forwards to the cloud
	cli := rg.clients[0]
	cli.HTTPGetAsync("203.0.113.10", 80, &simnet.HTTPRequest{}, 100*time.Millisecond, func(*simnet.HTTPResult, error) {})
	rg.k.RunUntil(500 * time.Millisecond)
	if rg.ctrl.Stats.CloudForwards != 1 || rg.sw.RuleCount() != 2 || rg.ctrl.Memory.clientFlows(cli.IP()) != 0 {
		t.Fatalf("setup: %d cloud forwards, %d rules, %d memorized flows; want 1, punt + pair, 0",
			rg.ctrl.Stats.CloudForwards, rg.sw.RuleCount(), rg.ctrl.Memory.clientFlows(cli.IP()))
	}
	// Step to the pair's idle expiry: its flow-removed is now on the channel.
	for rg.sw.RuleCount() == 2 {
		if !rg.k.Step() {
			t.Fatal("the pair never idled out")
		}
	}
	// A dispatch finishing inside the channel latency re-installs the pair.
	rg.ctrl.installCloudForward(rg.sw, FlowKey{Client: cli.IP(), VIP: "203.0.113.10", Port: 80})
	rg.k.RunUntil(rg.k.Now() + 10*time.Millisecond)
	if _, ok := rg.ctrl.ClientLocation(cli.IP()); !ok {
		t.Error("the stale flow-removed evicted the client's location, though its new pair is live")
	}
	if n := rg.ctrl.CookieCount(); n != 1 || rg.sw.RuleCount() != 2 {
		t.Errorf("%d cookies, %d rules after the stale notice, want the new pair's 1 and punt + pair", n, rg.sw.RuleCount())
	}
	// The new pair's own expiry is not stale: it releases everything.
	rg.k.RunUntil(rg.k.Now() + 5*time.Second)
	if rg.ctrl.TrackedClients() != 0 || rg.ctrl.CookieCount() != 0 {
		t.Errorf("after the new pair idled out: %d clients, %d cookies, want 0, 0", rg.ctrl.TrackedClients(), rg.ctrl.CookieCount())
	}
}

// TestParallelStateQueriesLatency: with 4 clusters the default (parallel)
// dispatcher charges one per-cluster state-query latency and
// SerialStateQueries charges four, so a request's total differs by three.
func TestParallelStateQueriesLatency(t *testing.T) {
	measure := func(serial bool) time.Duration {
		cfg := Config{}
		cfg.SerialStateQueries = serial
		rg := newHotpathRig(t, 4, 1, cfg)
		var total time.Duration
		rg.k.Go("driver", func(p *sim.Proc) {
			// Warm the nearest cluster so dispatch only gathers state.
			if _, err := rg.ctrl.EnsureDeployed(p, "fc0", rg.svc.UniqueName); err != nil {
				t.Errorf("pre-deploy: %v", err)
				return
			}
			res, err := rg.clients[0].HTTPGet(p, "203.0.113.10", 80, &simnet.HTTPRequest{}, 0)
			if err != nil {
				t.Errorf("request: %v", err)
				return
			}
			total = res.Total
		})
		rg.k.RunUntil(time.Minute)
		return total
	}
	parallel := measure(false)
	serial := measure(true)
	if parallel < stateQueryLatency || serial-parallel != 3*stateQueryLatency {
		t.Errorf("parallel dispatch = %v, serial %v: want at least one query latency (%v) and three more serially",
			parallel, serial, stateQueryLatency)
	}
}

// TestFlowMemoryClientIndex: per-client counts and the idle-client
// callback that drives clientLoc eviction.
func TestFlowMemoryClientIndex(t *testing.T) {
	k := sim.New(1)
	m := NewFlowMemory(k, time.Second)
	var idleClients []simnet.Addr
	m.OnIdleClient = func(c simnet.Addr, _ uint32) { idleClients = append(idleClients, c) }
	in := mkInst("svc", "10.0.0.1", 32000)
	m.Put(FlowKey{Client: "ue1", VIP: "203.0.113.10", Port: 80}, in)
	m.Put(FlowKey{Client: "ue1", VIP: "203.0.113.11", Port: 80}, in)
	m.Put(FlowKey{Client: "ue2", VIP: "203.0.113.10", Port: 80}, in)
	if m.clientFlows("ue1") != 2 || m.clientFlows("ue2") != 1 {
		t.Fatalf("clientFlows = %d/%d, want 2/1", m.clientFlows("ue1"), m.clientFlows("ue2"))
	}
	if m.ServiceFlows("svc") != 3 {
		t.Fatalf("ServiceFlows = %d, want 3", m.ServiceFlows("svc"))
	}
	k.RunUntil(5 * time.Second)
	if len(idleClients) != 2 {
		t.Fatalf("idle-client callbacks = %v, want one per client", idleClients)
	}
	if m.clientFlows("ue1") != 0 || m.ServiceFlows("svc") != 0 {
		t.Fatal("indexes not drained after expiry")
	}
}
