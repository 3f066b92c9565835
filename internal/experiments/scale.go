package experiments

import (
	"fmt"
	"strings"
	"time"

	"transparentedge/internal/cluster"
	"transparentedge/internal/core"
	"transparentedge/internal/openflow"
	"transparentedge/internal/sim"
	"transparentedge/internal/simnet"
	"transparentedge/internal/spec"
)

// The scale experiments stress the dispatcher hot path beyond the paper's
// two-cluster testbed: DispatchScale measures how the packet-in dispatch
// latency grows with the number of registered edge clusters (parallel vs.
// the paper's original serial state gathering), and CookieChurn replays a
// large one-shot client population to show the controller's cookie /
// client-location / flow-memory state stays bounded by the idle timeouts
// rather than by the total client count.

const scaleYAML = `
spec:
  template:
    spec:
      containers:
      - name: web
        image: web:1
        ports:
        - containerPort: 80
`

// stubCluster is a deliberately thin cluster.Cluster: state transitions are
// instant, but its endpoint is a real simnet listener so the controller's
// readiness probing and the clients' HTTP requests run over the simulated
// network like they would against a full engine. This keeps 64-cluster and
// 10k-client runs cheap while exercising the controller unchanged.
type stubCluster struct {
	name    string
	host    *simnet.Host
	port    int
	exists  bool
	running bool
	lis     *simnet.Listener
}

func (s *stubCluster) Name() string                   { return s.name }
func (s *stubCluster) Addr() simnet.Addr              { return s.host.IP() }
func (s *stubCluster) HasImages(*spec.Annotated) bool { return true }
func (s *stubCluster) Pull(*sim.Proc, *spec.Annotated) error {
	return nil
}
func (s *stubCluster) Exists(string) bool  { return s.exists }
func (s *stubCluster) Running(string) bool { return s.running }
func (s *stubCluster) Create(p *sim.Proc, a *spec.Annotated) error {
	s.exists = true
	return nil
}

func (s *stubCluster) ScaleUp(p *sim.Proc, service string) (cluster.Instance, error) {
	s.running = true
	if s.lis == nil {
		s.lis = s.host.ServeHTTPAsync(s.port, cluster.Behavior{RespSize: simnet.KiB}.AsyncHandler())
	}
	return s.instance(service), nil
}

func (s *stubCluster) ScaleDown(p *sim.Proc, service string) error {
	s.running = false
	if s.lis != nil {
		s.lis.Close()
		s.lis = nil
	}
	return nil
}

func (s *stubCluster) Remove(p *sim.Proc, service string) error {
	_ = s.ScaleDown(p, service)
	s.exists = false
	return nil
}

func (s *stubCluster) Endpoint(service string) (cluster.Instance, bool) {
	if !s.running {
		return cluster.Instance{}, false
	}
	return s.instance(service), true
}

func (s *stubCluster) Services() []string { return nil }

func (s *stubCluster) instance(service string) cluster.Instance {
	return cluster.Instance{Service: service, Cluster: s.name, Addr: s.host.IP(), Port: s.port}
}

// scaleRig is the topology both scale experiments run on: one switch, the
// controller on the EGS (switch port 1), stub clusters (ports 100 up) and the
// web service registered on the VIP. UEs attach where the experiment likes.
type scaleRig struct {
	k       *sim.Kernel
	n       *simnet.Network
	sw      *openflow.Switch
	link    simnet.LinkConfig
	ctrl    *core.Controller
	stubs   []*stubCluster
	service string // the registered service's unique name
}

const scaleVIP = simnet.Addr("203.0.113.10")

// newScaleRig builds the rig; tune sets the controller knobs the experiment
// is about.
func newScaleRig(seed int64, o runOpts, clusters int, tune func(*core.Config)) (*scaleRig, error) {
	k := sim.New(seed)
	n := simnet.NewNetwork(k)
	n.SetObs(o.counters)
	r := &scaleRig{
		k: k, n: n,
		sw:   openflow.NewSwitch(n, "sw", openflow.DefaultConfig()),
		link: simnet.LinkConfig{Latency: 100 * time.Microsecond, Bandwidth: simnet.Gbps},
	}
	egs := r.attach("egs", "10.0.0.10", 1)

	cfg := core.DefaultConfig()
	cfg.Scheduler = core.WaitNearestScheduler{}
	cfg.Trace = o.attribTracer()
	cfg.Counters = o.counters
	tune(&cfg)
	r.ctrl = core.New(k, egs, cfg)
	r.ctrl.AddSwitch(r.sw)

	for i := 0; i < clusters; i++ {
		name := fmt.Sprintf("edge%d", i)
		ip := simnet.Addr(fmt.Sprintf("10.0.%d.%d", 2+i/250, 1+i%250))
		stub := &stubCluster{name: name, host: r.attach(name, ip, 100+i), port: 32000}
		r.ctrl.AddCluster(stub, "docker")
		r.stubs = append(r.stubs, stub)
	}
	svc, err := r.ctrl.RegisterService(scaleYAML, spec.Registration{
		Domain: "web.example.com", VIP: scaleVIP, Port: 80,
	})
	if err != nil {
		return nil, err
	}
	r.service = svc.UniqueName
	return r, nil
}

// attach adds a host on the given switch port.
func (r *scaleRig) attach(name string, ip simnet.Addr, swPort int) *simnet.Host {
	h := simnet.NewHost(r.n, name, ip)
	r.sw.AttachHost(h, swPort, r.link)
	return h
}

// DispatchScaleResult reports one dispatch-latency measurement.
type DispatchScaleResult struct {
	Clusters int
	Serial   bool
	// Dispatch is the client-observed total of the first (cold-flow)
	// request with the service already running on the nearest cluster, so
	// it is dominated by the dispatcher's state gathering.
	Dispatch time.Duration
}

// String renders the measurement.
func (r DispatchScaleResult) String() string {
	mode := "parallel"
	if r.Serial {
		mode = "serial"
	}
	return fmt.Sprintf("dispatch over %d clusters (%s state queries): %v", r.Clusters, mode, r.Dispatch)
}

// DispatchScale measures the packet-in dispatch latency with the given
// number of registered clusters. The service is pre-deployed on the
// nearest cluster, so the measured request pays punt + state gathering +
// redirect install + the HTTP exchange — the state-gathering share is the
// sum of per-cluster query latencies when serial, the max when parallel.
func DispatchScale(seed int64, clusters int, serial bool, options ...Option) (DispatchScaleResult, error) {
	o := applyOpts(options)
	clusters = max(clusters, 1)
	res := DispatchScaleResult{Clusters: clusters, Serial: serial}
	r, err := newScaleRig(seed, o, clusters, func(cfg *core.Config) { cfg.SerialStateQueries = serial })
	if err != nil {
		return res, err
	}
	client := r.attach("ue", "10.0.1.1", 2)

	err = drive(r.k, time.Hour, func(p *sim.Proc) error {
		if _, err := r.ctrl.EnsureDeployed(p, r.stubs[0].Name(), r.service); err != nil {
			return err
		}
		got, err := client.HTTPGet(p, scaleVIP, 80, &simnet.HTTPRequest{}, 0)
		if err == nil {
			res.Dispatch = got.Total
		}
		return err
	})
	o.attrib.EndStream()
	return res, err
}

// CookieChurnResult reports the controller-state sizes over a one-shot
// client churn run.
type CookieChurnResult struct {
	Clients int
	// Peak sizes observed while the churn was in flight — bounded by the
	// idle-timeout windows, not by Clients.
	PeakCookies, PeakClientLocs, PeakMemory int
	// Final sizes after all idle timeouts elapsed — the GC regression
	// check; all three must be zero.
	FinalCookies, FinalClientLocs, FinalMemory int
}

// String renders the churn summary.
func (r CookieChurnResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cookie churn, %d one-shot clients\n", r.Clients)
	fmt.Fprintf(&b, "%-12s %8s %8s\n", "state", "peak", "final")
	fmt.Fprintf(&b, "%-12s %8d %8d\n", "cookies", r.PeakCookies, r.FinalCookies)
	fmt.Fprintf(&b, "%-12s %8d %8d\n", "client locs", r.PeakClientLocs, r.FinalClientLocs)
	fmt.Fprintf(&b, "%-12s %8d %8d\n", "flow memory", r.PeakMemory, r.FinalMemory)
	return b.String()
}

// CookieChurn drives clients one-shot clients (each makes a single request
// and never returns) through one switch and one edge cluster with short
// idle timeouts, sampling the controller's cookie map, client-location map
// and flow memory. Before the GC fixes these grew linearly with the client
// count forever; now the peaks track the idle-timeout windows and the
// final sizes return to zero.
func CookieChurn(seed int64, clients int, options ...Option) (CookieChurnResult, error) {
	o := applyOpts(options)
	clients = max(clients, 1)
	const (
		spacing      = 2 * time.Millisecond
		switchIdle   = 500 * time.Millisecond
		memoryIdle   = 2 * time.Second
		samplePeriod = 50 * time.Millisecond
	)
	res := CookieChurnResult{Clients: clients}
	r, err := newScaleRig(seed, o, 1, func(cfg *core.Config) {
		cfg.SwitchIdleTimeout = switchIdle
		cfg.MemoryIdleTimeout = memoryIdle
	})
	if err != nil {
		return res, err
	}
	k, ctrl := r.k, r.ctrl

	var rerr error               // the first failed churn request
	req := &simnet.HTTPRequest{} // shared: a request is never written
	done := func(_ *simnet.HTTPResult, err error) {
		if err != nil && rerr == nil {
			rerr = fmt.Errorf("churn request: %w", err)
		}
	}
	for i := 0; i < clients; i++ {
		h := r.attach(fmt.Sprintf("ue%d", i),
			simnet.Addr(fmt.Sprintf("10.%d.%d.%d", 10+i/62500, (i/250)%250, 1+i%250)), 1000+i)
		k.AfterFree(time.Duration(i)*spacing, func() { h.HTTPGetAsync(scaleVIP, 80, req, 0, done) })
	}
	end := sim.Time(time.Duration(clients)*spacing + memoryIdle + switchIdle + 10*time.Second)
	var sample func()
	sample = func() {
		if k.Now() >= end {
			return
		}
		res.PeakCookies = max(res.PeakCookies, ctrl.CookieCount())
		res.PeakClientLocs = max(res.PeakClientLocs, ctrl.TrackedClients())
		res.PeakMemory = max(res.PeakMemory, ctrl.Memory.Len())
		k.AfterFree(samplePeriod, sample)
	}
	sample()
	k.RunUntil(end + time.Second)
	res.FinalCookies = ctrl.CookieCount()
	res.FinalClientLocs = ctrl.TrackedClients()
	res.FinalMemory = ctrl.Memory.Len()
	o.attrib.EndStream()
	return res, rerr
}
