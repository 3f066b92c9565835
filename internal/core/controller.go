package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"transparentedge/internal/cluster"
	"transparentedge/internal/metrics"
	"transparentedge/internal/obs"
	"transparentedge/internal/openflow"
	"transparentedge/internal/sim"
	"transparentedge/internal/simnet"
	"transparentedge/internal/spec"
	"transparentedge/internal/steer"
)

// DistanceFunc ranks a cluster's proximity to a client (lower = closer).
// The testbed provides a topology-aware implementation.
type DistanceFunc func(client simnet.Addr, cl cluster.Cluster) int

// Config configures the controller.
type Config struct {
	// Scheduler is the Global Scheduler (see RegisterScheduler /
	// NewScheduler for name-based loading).
	Scheduler GlobalScheduler
	// LocalSchedulerName, when set, is annotated into every service
	// definition as the Kubernetes schedulerName (§V).
	LocalSchedulerName string
	// SwitchIdleTimeout is the idle timeout of installed switch flows —
	// kept low because the FlowMemory re-serves returning clients (§V).
	SwitchIdleTimeout time.Duration
	// MemoryIdleTimeout is the FlowMemory's (longer) idle timeout.
	MemoryIdleTimeout time.Duration
	// ProbeInterval is the pause between readiness probes.
	ProbeInterval time.Duration
	// ProbeDialTimeout bounds a single probe attempt.
	ProbeDialTimeout time.Duration
	// ProbeMaxWait bounds the overall readiness-probing of one scale-up: a
	// port that never opens (crashed instance, partitioned cluster) turns
	// into a deploy error instead of hanging the dispatcher and the held
	// client packet forever. 0 selects DefaultProbeMaxWait; negative waits
	// forever (the original unbounded behavior).
	ProbeMaxWait time.Duration
	// DeployRetries is how many extra attempts a failed deployment phase
	// gets before the deployment is declared failed (0 = fail on the first
	// error, the paper's behavior).
	DeployRetries int
	// DeployBackoffBase starts the capped exponential backoff between retry
	// attempts: base, 2*base, 4*base, ... capped at deployBackoffMax. Zero
	// selects DefaultDeployBackoffBase; a negative base retries immediately.
	DeployBackoffBase time.Duration
	// StateQueryLatency is charged per cluster when the Dispatcher
	// gathers the list of existing and running instances (fig. 7) — the
	// Docker / Kubernetes API round trips of the paper's Python client
	// libraries. Memory-served requests skip this entirely (§V).
	StateQueryLatency time.Duration
	// SerialStateQueries reproduces the paper's original dispatcher,
	// which issued the per-cluster state queries one after another (total
	// latency = sum over clusters). The default is false: queries run as
	// concurrent sim processes and the charged latency is the maximum
	// over clusters, keeping dispatch ~flat in the cluster count.
	SerialStateQueries bool
	// AutoScaleDown scales a service down once its last memorized flow
	// expires (§V: "our controller may automatically scale down idle edge
	// service instances").
	AutoScaleDown bool
	// Distance ranks clusters per client; nil means all distances are 0.
	Distance DistanceFunc
	// InstancePicker chooses among multiple ready instances of a service
	// within the selected cluster (the Local Scheduler's traffic-level
	// role, fig. 6); nil keeps the cluster's primary endpoint.
	InstancePicker InstancePicker
	// Events, when set, receives the controller's structured events
	// (registrations, dispatch outcomes, deployment and scale-down
	// failures; see obs.EventKind). Event.String renders each as one line.
	Events func(obs.Event)
	// Trace, when set, records a span tree for every intercepted request
	// (intercept → FlowMemory hit/miss → scheduler decision → deploy
	// phases with per-phase attempts → probe → flow install / next-best
	// fallback / cloud forward), timestamped with the kernel's virtual
	// clock. Nil disables tracing at zero cost on the hot path, and an
	// attached tracer only records — it never perturbs the simulation.
	Trace *obs.Tracer
	// Counters, when set, registers the controller's counters (dispatch
	// outcomes by kind, FlowMemory hits/misses/evictions/drains, deploy
	// retries and failures by phase and cluster) in the registry. Nil
	// disables all counting at zero cost.
	Counters *obs.Registry
	// Steering selects how dispatch decisions reach the data plane: nil
	// picks the paper's per-flow rule installs (steer.NewOpenFlow); the
	// stateless SRv6-style alternative is srsteer.New (DESIGN.md §14). The
	// controller Binds the backend at construction — supply a fresh value
	// per controller.
	Steering steer.Steering
}

// DefaultProbeMaxWait is the default overall readiness-probing bound —
// generous enough that every legitimate container start (including the
// slowest image's init) finishes well inside it, so it only fires on
// genuinely dead instances.
const DefaultProbeMaxWait = 5 * time.Minute

// DefaultDeployBackoffBase is the first retry's backoff; each later one
// doubles, up to deployBackoffMax.
const DefaultDeployBackoffBase = 50 * time.Millisecond

const (
	deployBackoffMax = 2 * time.Second
	// flowPriority and puntPriority order the redirect rules above the
	// packet-in rules.
	flowPriority = 100
	puntPriority = 50
)

// runtimeClassKinds maps a service's runtimeClassName to the cluster kinds
// that can run it (§VIII side-by-side operation).
var runtimeClassKinds = map[string]map[string]bool{
	"":     {"docker": true, "kubernetes": true},
	"wasm": {"serverless": true},
}

// DefaultConfig returns the controller defaults used in the evaluation.
func DefaultConfig() Config {
	return Config{
		Scheduler:         ProximityScheduler{},
		SwitchIdleTimeout: 10 * time.Second,
		MemoryIdleTimeout: 2 * time.Minute,
		ProbeInterval:     20 * time.Millisecond,
		ProbeDialTimeout:  500 * time.Millisecond,
		ProbeMaxWait:      DefaultProbeMaxWait,
		StateQueryLatency: 8 * time.Millisecond,
	}
}

type addrPort struct {
	ip   simnet.Addr
	port int
}

type clusterEntry struct {
	c    cluster.Cluster
	kind string
}

// Stats are controller-level counters.
type Stats struct {
	PacketIns     uint64 // packet-ins dispatched
	MemoryServed  uint64 // served from FlowMemory without scheduling
	CloudForwards uint64 // requests forwarded toward the cloud
	Deployments   uint64 // deployments triggered (any phase ran)
	Redirections  uint64 // FlowMemory entries re-pointed to a BEST instance
	// ProactiveDeployments counts deployments initiated by the predictor.
	ProactiveDeployments uint64
	// DeployRetries counts phase retry attempts taken (capped-exponential
	// backoff); DeployFailures counts deployments that exhausted their
	// retries and failed.
	DeployRetries  uint64
	DeployFailures uint64
	// FallbackDeployments counts dispatches served by a farther cluster
	// after the scheduler's first choice failed to deploy; CloudFallbacks
	// counts dispatches degraded to cloud forwarding because every edge
	// candidate failed (a subset of CloudForwards).
	FallbackDeployments uint64
	CloudFallbacks      uint64
	// ScaleDownFailures counts idle-instance scale-downs that returned an
	// error (previously silently dropped).
	ScaleDownFailures uint64
	// Handovers counts NoteHandover calls; HandoverReAnchors counts flows
	// re-anchored eagerly at handover time (stateless backends only —
	// rule-based backends re-anchor lazily at the next packet-in).
	Handovers         uint64
	HandoverReAnchors uint64
}

// ctrlCounters are the controller's resolved obs counter handles. With no
// registry configured every handle is nil, and *obs.Counter methods no-op
// on nil receivers — the documented zero-cost off switch.
type ctrlCounters struct {
	packetIns         *obs.Counter
	memoryServed      *obs.Counter
	cloudForwards     *obs.Counter
	cloudFallbacks    *obs.Counter
	fallbackDeploys   *obs.Counter
	deployments       *obs.Counter
	redirections      *obs.Counter
	scaleDownFailures *obs.Counter
	handovers         *obs.Counter
	reanchors         *obs.Counter
}

// Controller is the SDN controller: it owns the registered services, the
// FlowMemory, the Dispatcher logic, and the deployment engine.
type Controller struct {
	k         *sim.Kernel
	cfg       Config
	probeHost *simnet.Host
	switches  []*openflow.Switch
	clusters  []clusterEntry
	// clusterIdx maps a cluster name to its clusters index (first
	// registration wins), making name lookups and liveness checks O(1)
	// on the packet-in hot path.
	clusterIdx map[string]int
	services   map[addrPort]*spec.Annotated
	byName     map[string]*spec.Annotated
	regByName  map[string]spec.Registration
	Memory     *FlowMemory
	deploy     *deployer
	records    []DeployRecord
	clientLoc  map[simnet.Addr]ClientLocation
	// pendingHO records handovers a rule-based backend has not yet resolved
	// (see handover.go); gaps collects one continuity-gap sample per
	// resolved handover of a client with live flows. transit holds the
	// switches attached without punt rules (AddTransitSwitch).
	pendingHO map[simnet.Addr]pendingHandover
	gaps      *metrics.Hist
	transit   []*openflow.Switch
	// steerB is the pluggable data-plane mechanism (DESIGN.md §14): the
	// per-flow rule installer by default, or the stateless SRv6-style
	// backend. All install/uninstall/GC flows through it.
	steerB    steer.Steering
	predictor Predictor
	Stats     Stats
	// events is the resolved structured-event sink (nil = silent); tr and
	// reg are the optional tracing and counter sinks from Config.
	events func(obs.Event)
	tr     *obs.Tracer
	reg    *obs.Registry
	ctr    ctrlCounters
	// freeDispatch recycles the per-dispatch records (dispatchRec); it holds
	// at most the most dispatches ever in flight at once.
	freeDispatch []*dispatchRec
}

// ClientLocation is the dispatcher's record of where a client was last seen
// (§IV-B: "this component also tracks the clients' current location").
type ClientLocation struct {
	Switch *openflow.Switch
	InPort int
	SeenAt sim.Time
}

// New creates a controller. probeHost is the host the controller's
// readiness probes originate from (the EGS in the paper's testbed).
func New(k *sim.Kernel, probeHost *simnet.Host, cfg Config) *Controller {
	if cfg.Scheduler == nil {
		cfg.Scheduler = ProximityScheduler{}
	}
	if cfg.SwitchIdleTimeout <= 0 {
		cfg.SwitchIdleTimeout = 10 * time.Second
	}
	if cfg.MemoryIdleTimeout <= 0 {
		cfg.MemoryIdleTimeout = 2 * time.Minute
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 20 * time.Millisecond
	}
	if cfg.ProbeDialTimeout <= 0 {
		cfg.ProbeDialTimeout = 500 * time.Millisecond
	}
	if cfg.ProbeMaxWait == 0 {
		cfg.ProbeMaxWait = DefaultProbeMaxWait
	}
	if cfg.DeployBackoffBase == 0 {
		cfg.DeployBackoffBase = DefaultDeployBackoffBase
	}
	c := &Controller{
		k:          k,
		cfg:        cfg,
		probeHost:  probeHost,
		clusterIdx: make(map[string]int),
		services:   make(map[addrPort]*spec.Annotated),
		byName:     make(map[string]*spec.Annotated),
		regByName:  make(map[string]spec.Registration),
		clientLoc:  make(map[simnet.Addr]ClientLocation),
		pendingHO:  make(map[simnet.Addr]pendingHandover),
		gaps:       metrics.NewHist("continuity_gap"),
	}
	c.Memory = NewFlowMemory(k, cfg.MemoryIdleTimeout)
	c.Memory.OnIdleInstance = c.onIdleInstance
	c.Memory.OnIdleClient = c.onIdleClient
	c.deploy = newDeployer(c)
	c.steerB = cfg.Steering
	if c.steerB == nil {
		c.steerB = steer.NewOpenFlow()
	}
	c.steerB.Bind(steer.Params{
		Kernel:       k,
		FlowPriority: flowPriority,
		IdleTimeout:  c.cfg.SwitchIdleTimeout,
		// Stateless backends have no flow-removed notification; their
		// idle-expired bindings reach steeringExpired directly.
		OnExpired: c.steeringExpired,
		Counters:  cfg.Counters,
	})
	// Resolve the observability sinks once. Each handle no-ops on nil, so
	// instrumented sites pay a single inlined nil check when obs is off.
	c.tr = cfg.Trace
	c.events = cfg.Events
	if reg := cfg.Counters; reg != nil {
		c.reg = reg
		c.ctr = ctrlCounters{
			packetIns:         reg.Counter("dispatch_packet_ins_total"),
			memoryServed:      reg.Counter("dispatch_memory_served_total"),
			cloudForwards:     reg.Counter("dispatch_cloud_forwards_total"),
			cloudFallbacks:    reg.Counter("dispatch_cloud_fallbacks_total"),
			fallbackDeploys:   reg.Counter("dispatch_fallback_deployments_total"),
			deployments:       reg.Counter("deploy_performed_total"),
			redirections:      reg.Counter("dispatch_redirections_total"),
			scaleDownFailures: reg.Counter("deploy_scale_down_failures_total"),
			handovers:         reg.Counter("handover_events_total"),
			reanchors:         reg.Counter("handover_reanchors_total"),
		}
		c.Memory.SetObs(reg)
	}
	return c
}

// Kernel returns the kernel the controller runs on.
func (c *Controller) Kernel() *sim.Kernel { return c.k }

// emit hands a structured event to the configured sink (Config.Events),
// stamping the virtual time. Nil sink: the event struct is built but nothing else happens — all
// emit sites are off the memory-served hot path.
func (c *Controller) emit(e obs.Event) {
	if c.events == nil {
		return
	}
	e.Time = time.Duration(c.k.Now())
	c.events(e)
}

// AddSwitch attaches the controller to a switch and installs the packet-in
// punt rules for every registered service.
func (c *Controller) AddSwitch(sw *openflow.Switch) {
	c.switches = append(c.switches, sw)
	sw.SetController(c)
	c.steerB.AttachSwitch(sw)
	for ap := range c.services {
		c.installPunt(sw, ap)
	}
}

// AddCluster registers an edge cluster under a kind tag ("docker",
// "kubernetes", ...) the schedulers can select on.
func (c *Controller) AddCluster(cl cluster.Cluster, kind string) {
	if _, dup := c.clusterIdx[cl.Name()]; !dup {
		c.clusterIdx[cl.Name()] = len(c.clusters)
	}
	c.clusters = append(c.clusters, clusterEntry{c: cl, kind: kind})
}

// Clusters returns the registered clusters in registration order.
func (c *Controller) Clusters() []cluster.Cluster {
	out := make([]cluster.Cluster, len(c.clusters))
	for i, e := range c.clusters {
		out[i] = e.c
	}
	return out
}

// RegisterService registers an edge service: the YAML definition is parsed
// and annotated (§V), and every switch gets a punt rule so requests to the
// service address reach the controller.
func (c *Controller) RegisterService(yamlSrc string, reg spec.Registration) (*spec.Annotated, error) {
	def, err := spec.Parse(yamlSrc)
	if err != nil {
		return nil, err
	}
	a, err := spec.Annotate(def, reg, spec.Options{SchedulerName: c.cfg.LocalSchedulerName})
	if err != nil {
		return nil, err
	}
	ap := addrPort{reg.VIP, reg.Port}
	if _, dup := c.services[ap]; dup {
		return nil, fmt.Errorf("core: service address %s:%d already registered", reg.VIP, reg.Port)
	}
	c.services[ap] = a
	c.byName[a.UniqueName] = a
	c.regByName[a.UniqueName] = reg
	for _, sw := range c.switches {
		c.installPunt(sw, ap)
	}
	c.emit(obs.Event{Kind: obs.EvRegistered, Service: a.UniqueName, Addr: string(reg.VIP), Port: reg.Port})
	return a, nil
}

// Service returns the annotated definition registered at vip:port.
func (c *Controller) Service(vip simnet.Addr, port int) (*spec.Annotated, bool) {
	a, ok := c.services[addrPort{vip, port}]
	return a, ok
}

// ServiceNames returns the registered unique service names (sorted).
func (c *Controller) ServiceNames() []string {
	names := make([]string, 0, len(c.byName))
	for n := range c.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func (c *Controller) installPunt(sw *openflow.Switch, ap addrPort) {
	sw.AddFlow(openflow.FlowRule{
		Priority: puntPriority,
		Match:    openflow.Match{DstIP: ap.ip, DstPort: ap.port},
		Actions:  openflow.Actions{Output: openflow.OutputController},
	})
}

// ClientLocation returns where a client was last seen.
func (c *Controller) ClientLocation(ip simnet.Addr) (ClientLocation, bool) {
	loc, ok := c.clientLoc[ip]
	return loc, ok
}

// HandlePacketIn implements openflow.Controller: the fig. 7 dispatching
// algorithm. Runs in kernel context; long work is spawned as a process
// while the packet stays held.
func (c *Controller) HandlePacketIn(ev openflow.PacketIn) {
	pkt := ev.Packet
	c.Stats.PacketIns++
	c.ctr.packetIns.Inc()
	// The previous location is captured before the update: a memory hit at
	// a different switch is a handover and re-anchors the steering state.
	prev := c.clientLoc[pkt.SrcIP]
	c.clientLoc[pkt.SrcIP] = ClientLocation{Switch: ev.Switch, InPort: ev.InPort, SeenAt: c.k.Now()}
	svc, ok := c.services[addrPort{pkt.DstIP, pkt.DstPort}]
	if !ok {
		// Not a registered service: forward normally.
		ev.Switch.PacketOut(pkt, openflow.Actions{Output: openflow.OutputNormal})
		return
	}
	if c.predictor != nil {
		c.predictor.Observe(svc.UniqueName, c.k.Now())
	}
	fk := FlowKey{Client: pkt.SrcIP, VIP: pkt.DstIP, Port: pkt.DstPort}
	if inst, ok := c.Memory.Get(fk); ok && c.instanceAlive(inst) {
		// Memorized flow: reinstall steering without scheduling (§V). A hit
		// from a new attachment point is a handover — the steering state is
		// re-anchored there and the stale switch's state released eagerly.
		c.Stats.MemoryServed++
		c.ctr.memoryServed.Inc()
		// After an explicit NoteHandover the location record already points
		// at this switch, so the stale anchor — where the rules actually
		// live — is the pending record's `from`, not prev.Switch.
		from := prev.Switch
		if ph, pending := c.pendingHO[pkt.SrcIP]; pending {
			from = ph.from
		}
		action := "flow_install"
		if from != nil && from != ev.Switch {
			c.steerB.ReAnchor(from, ev.Switch, steer.Flow(fk), steer.Endpoint{Addr: inst.Addr, Port: inst.Port})
			action = "reanchor"
		} else {
			c.installRedirect(ev.Switch, fk, inst)
		}
		c.resolveHandover(pkt.SrcIP, action, ev.Switch)
		ev.Switch.TableOut(pkt)
		if tr := c.tr; tr != nil {
			now := time.Duration(c.k.Now())
			root := tr.NextID()
			tr.Emit(obs.Span{ID: root, Root: root, Name: "dispatch", Cat: "dispatch",
				Detail: svc.UniqueName + "<-" + string(fk.Client), Start: now, End: now})
			tr.Emit(obs.Span{Parent: root, Root: root, Name: "memory_hit", Cat: "flowmemory",
				Detail: inst.Cluster, Start: now, End: now})
		}
		return
	}
	// The dispatch span's ID is allocated before the process is spawned so
	// the tree is rooted at intercept time; zero when tracing is off.
	d := c.newDispatch()
	d.ev, d.svc, d.fk = ev, svc, fk
	d.root, d.t0 = c.tr.NextID(), time.Duration(c.k.Now())
	c.k.Go("dispatch", d.body)
}

// dispatchRec is the state of one dispatched packet-in, recycled through the
// controller's free list: the packet-in's fields, the buffers buildState
// fills (candidate indices, the scheduler's ClusterInfo slice and the
// endpoints it points into), and body, the process body, bound once per
// record. The State and Choice built from it are valid only until the
// dispatch returns.
type dispatchRec struct {
	c     *Controller
	ev    openflow.PacketIn
	svc   *spec.Annotated
	fk    FlowKey
	root  uint64        // dispatch span ID (0 with tracing off)
	t0    time.Duration // intercept time
	cands []int
	infos []ClusterInfo
	eps   []cluster.Instance
	body  func(p *sim.Proc)
}

func (c *Controller) newDispatch() *dispatchRec {
	if n := len(c.freeDispatch); n > 0 {
		d := c.freeDispatch[n-1]
		c.freeDispatch[n-1] = nil
		c.freeDispatch = c.freeDispatch[:n-1]
		return d
	}
	d := &dispatchRec{c: c}
	d.body = d.run
	return d
}

func (d *dispatchRec) run(p *sim.Proc) {
	c := d.c
	c.dispatch(p, d)
	d.ev, d.svc = openflow.PacketIn{}, nil
	c.freeDispatch = append(c.freeDispatch, d)
}

// HandleFlowRemoved implements openflow.Controller: the controller-state
// GC hook. The redirect / cloud-forward rules the controller installs ask
// for a flow-removed notification, so when a pair idle-expires the cookie
// bookkeeping for its client/service pair is released.
func (c *Controller) HandleFlowRemoved(sw *openflow.Switch, rule *openflow.FlowRule) {
	// Only the forward rule of a pair notifies; its match carries the
	// original flow key (client -> VIP:port). The backend releases its own
	// bookkeeping and reports which flow expired.
	if f, ok := c.steerB.FlowRemoved(sw, rule); ok {
		c.steeringExpired(f)
	}
}

// steeringExpired is where both backends report a flow whose steering state
// idled out. A client whose last memorized flow is also gone needs no
// location record anymore — the next packet-in re-learns it — so
// cloud-forwarded clients (which never enter the FlowMemory) are evicted
// here too.
func (c *Controller) steeringExpired(f steer.Flow) {
	if c.Memory.ClientFlows(f.Client) == 0 {
		c.dropHandoverState(f.Client)
	}
}

// onIdleClient is the FlowMemory callback: the client's last memorized
// flow expired, so its location record is dropped (re-learned on the next
// packet-in). Keeps clientLoc bounded by the set of active clients.
func (c *Controller) onIdleClient(client simnet.Addr) {
	c.dropHandoverState(client)
}

func (c *Controller) instanceAlive(inst cluster.Instance) bool {
	i, ok := c.clusterIdx[inst.Cluster]
	if !ok {
		return false
	}
	ep, ok := c.clusters[i].c.Endpoint(inst.Service)
	return ok && ep.Addr == inst.Addr && ep.Port == inst.Port
}

func (c *Controller) clusterByName(name string) (cluster.Cluster, bool) {
	i, ok := c.clusterIdx[name]
	if !ok {
		return nil, false
	}
	return c.clusters[i].c, true
}

// buildState gathers the fig. 7 inputs for the Global Scheduler, charging
// the per-cluster state-query latency. By default the queries go out
// together, and since each takes the same constant latency they all answer at
// the same instant: one latency is charged and the clusters are then sampled
// in candidate order. Config.SerialStateQueries restores the paper's
// one-after-another behavior (latency = sum over clusters). The state lives
// in d's buffers.
func (c *Controller) buildState(p *sim.Proc, d *dispatchRec) State {
	svc, client := d.svc, d.fk.Client
	allowed := runtimeClassKinds[svc.RuntimeClass]
	d.cands = d.cands[:0]
	for i, e := range c.clusters {
		if allowed != nil && !allowed[e.kind] {
			continue
		}
		d.cands = append(d.cands, i)
	}
	lat := c.cfg.StateQueryLatency
	if lat > 0 && !c.cfg.SerialStateQueries && len(d.cands) > 0 {
		p.Sleep(lat)
	}
	if len(d.eps) < len(d.cands) {
		d.eps = make([]cluster.Instance, len(d.cands))
	}
	d.infos = d.infos[:0]
	for n, i := range d.cands {
		if lat > 0 && c.cfg.SerialStateQueries {
			p.Sleep(lat)
		}
		d.infos = append(d.infos, c.queryCluster(i, svc, client, &d.eps[n]))
	}
	slices.SortStableFunc(d.infos, func(a, b ClusterInfo) int { return cmp.Compare(a.Distance, b.Distance) })
	return State{Service: svc, ClientIP: client, Clusters: d.infos}
}

// queryCluster samples one cluster's deployment state for a request (the
// body of a single fig. 7 state query); a running endpoint is stored in ep,
// which the result then points to.
func (c *Controller) queryCluster(i int, svc *spec.Annotated, client simnet.Addr, ep *cluster.Instance) ClusterInfo {
	e := c.clusters[i]
	info := ClusterInfo{
		Cluster:   e.c,
		Kind:      e.kind,
		HasImages: e.c.HasImages(svc),
		Exists:    e.c.Exists(svc.UniqueName),
		Running:   e.c.Running(svc.UniqueName),
	}
	var ok bool
	if *ep, ok = e.c.Endpoint(svc.UniqueName); ok {
		info.Endpoint = ep
		info.Load = c.Memory.InstanceFlows(*ep)
		if me, ok := e.c.(cluster.MultiEndpoint); ok {
			info.Load = 0
			for _, in := range me.Endpoints(svc.UniqueName) {
				info.Load += c.Memory.InstanceFlows(in)
			}
		}
	}
	if c.cfg.Distance != nil {
		info.Distance = c.cfg.Distance(client, e.c)
	} else {
		info.Distance = i
	}
	return info
}

// dispatch runs the fig. 7 algorithm for the punted packet d holds. d.root
// and d.t0 carry the span-tree root ID and intercept time from
// HandlePacketIn (root is 0 when tracing is off).
func (c *Controller) dispatch(p *sim.Proc, d *dispatchRec) {
	ev, svc, fk, root, t0 := d.ev, d.svc, d.fk, d.root, d.t0
	tr := c.tr
	// endRoot closes the dispatch root span at the current virtual time;
	// each terminal branch below calls it exactly once.
	endRoot := func(errText string) {
		if tr == nil {
			return
		}
		tr.Emit(obs.Span{ID: root, Root: root, Name: "dispatch", Cat: "dispatch",
			Detail: svc.UniqueName + "<-" + string(fk.Client), Start: t0, End: time.Duration(p.Now()), Err: errText})
	}
	if tr != nil {
		tr.Emit(obs.Span{Parent: root, Root: root, Name: "memory_miss", Cat: "flowmemory", Start: t0, End: t0})
	}
	st := c.buildState(p, d)
	choice := c.cfg.Scheduler.Choose(st)
	if tr != nil {
		now := time.Duration(p.Now())
		tr.Emit(obs.Span{Parent: root, Root: root, Name: "state_query", Cat: "dispatch",
			Detail: fmt.Sprintf("%d clusters", len(st.Clusters)), Start: t0, End: now})
		target := "cloud"
		if choice.Fast != nil {
			target = choice.Fast.Cluster.Name()
		}
		tr.Emit(obs.Span{Parent: root, Root: root, Name: "schedule", Cat: "dispatch",
			Detail: target, Start: now, End: now})
	}

	if choice.Fast == nil {
		// No edge location can serve the request now: forward toward the
		// cloud (fig. 1), still installing a flow so subsequent packets
		// bypass the controller.
		c.Stats.CloudForwards++
		c.ctr.cloudForwards.Inc()
		c.emit(obs.Event{Kind: obs.EvCloudForward, Service: svc.UniqueName, Client: string(fk.Client)})
		// Install — and release the held packet — at the client's *current*
		// switch: the client may have handed over while dispatch ran, and a
		// rule at the packet-in switch would be orphaned at the old location.
		sw := c.currentSwitch(fk.Client, ev.Switch)
		c.installCloudForward(sw, fk)
		c.resolveHandover(fk.Client, "cloud_forward", sw)
		sw.TableOut(ev.Packet)
		if tr != nil {
			now := time.Duration(p.Now())
			tr.Emit(obs.Span{Parent: root, Root: root, Name: "cloud_forward", Cat: "dispatch", Start: now, End: now})
		}
		endRoot("")
	} else {
		// performed (not the pre-dedup Running bit of the scheduler
		// state) decides the Deployments count: concurrent requests that
		// joined one in-flight deployment must not double-count it.
		target := choice.Fast.Cluster
		inst, performed, err := c.deploy.ensureRunning(p, target, svc, spanRef{root, root})
		if err != nil {
			// Degradation ladder: the chosen cluster failed even after
			// retries, so walk the remaining candidates in distance order
			// before giving the request up to the cloud.
			c.emit(obs.Event{Kind: obs.EvDeployFailed, Service: svc.UniqueName, Cluster: target.Name(), Err: err})
			inst, target, performed, err = c.fallbackDeploy(p, st, svc, target, root)
		}
		if err != nil {
			// Every edge candidate failed: degrade to cloud forwarding —
			// the held packet is still released, never dropped.
			c.emit(obs.Event{Kind: obs.EvAllEdgeFailed, Service: svc.UniqueName, Client: string(fk.Client), Err: err})
			c.Stats.CloudForwards++
			c.Stats.CloudFallbacks++
			c.ctr.cloudForwards.Inc()
			c.ctr.cloudFallbacks.Inc()
			sw := c.currentSwitch(fk.Client, ev.Switch)
			c.installCloudForward(sw, fk)
			c.resolveHandover(fk.Client, "cloud_forward", sw)
			sw.TableOut(ev.Packet)
			if tr != nil {
				now := time.Duration(p.Now())
				tr.Emit(obs.Span{Parent: root, Root: root, Name: "cloud_forward", Cat: "dispatch",
					Detail: "fallback", Start: now, End: now})
			}
			endRoot(err.Error())
			return
		}
		if performed {
			c.Stats.Deployments++
			c.ctr.deployments.Inc()
		}
		inst = c.pickInstance(target, fk.Client, inst)
		c.Memory.Put(fk, inst)
		// Re-read the client's location: a handover during the deployment
		// means the rules and the held packet belong at the new switch, not
		// the one that punted the packet (which the client already left).
		sw := c.currentSwitch(fk.Client, ev.Switch)
		c.installRedirect(sw, fk, inst)
		c.resolveHandover(fk.Client, "flow_install", sw)
		sw.TableOut(ev.Packet)
		if tr != nil {
			now := time.Duration(p.Now())
			tr.Emit(obs.Span{Parent: root, Root: root, Name: "flow_install", Cat: "dispatch",
				Detail: inst.Cluster, Start: now, End: now})
		}
		endRoot("")
		c.emit(obs.Event{Kind: obs.EvDispatched, Service: svc.UniqueName, Client: string(fk.Client),
			Cluster: inst.Cluster, Addr: string(inst.Addr), Port: inst.Port})
	}

	// On-demand deployment *without waiting*: deploy the BEST location in
	// the background and re-point future requests once it runs (fig. 3).
	if choice.Best != nil && (choice.Fast == nil || choice.Best.Cluster.Name() != choice.Fast.Cluster.Name()) {
		best := choice.Best.Cluster
		c.k.Go("deploy-best:"+svc.UniqueName, func(bp *sim.Proc) {
			// The background deployment is its own span tree: it outlives
			// the dispatch that triggered it.
			broot := c.tr.NextID()
			bt0 := time.Duration(bp.Now())
			endBest := func(errText string) {
				if c.tr == nil {
					return
				}
				c.tr.Emit(obs.Span{ID: broot, Root: broot, Name: "deploy_best", Cat: "background",
					Detail: svc.UniqueName + "@" + best.Name(), Start: bt0, End: time.Duration(bp.Now()), Err: errText})
			}
			inst, performed, err := c.deploy.ensureRunning(bp, best, svc, spanRef{broot, broot})
			if err != nil {
				c.emit(obs.Event{Kind: obs.EvBackgroundFailed, Service: svc.UniqueName, Cluster: best.Name(), Err: err})
				endBest(err.Error())
				return
			}
			if performed {
				c.Stats.Deployments++
				c.ctr.deployments.Inc()
			}
			n := c.Memory.RedirectService(svc.UniqueName, inst)
			c.Stats.Redirections += uint64(n)
			c.ctr.redirections.Add(uint64(n))
			c.emit(obs.Event{Kind: obs.EvOptimalReady, Service: svc.UniqueName, Cluster: best.Name(),
				Addr: string(inst.Addr), Port: inst.Port, N: n})
			endBest("")
		})
	}
}

// fallbackDeploy walks the scheduler state's remaining candidate clusters
// (already sorted by distance) after the first choice failed, returning the
// first successful deployment. The caller falls back to the cloud path when
// every candidate errors.
func (c *Controller) fallbackDeploy(p *sim.Proc, st State, svc *spec.Annotated, failed cluster.Cluster, root uint64) (cluster.Instance, cluster.Cluster, bool, error) {
	tr := c.tr
	fid := tr.NextID()
	var f0 time.Duration
	if tr != nil {
		f0 = time.Duration(p.Now())
	}
	endFallback := func(detail, errText string) {
		if tr == nil {
			return
		}
		tr.Emit(obs.Span{ID: fid, Parent: root, Root: root, Name: "fallback", Cat: "dispatch",
			Detail: detail, Start: f0, End: time.Duration(p.Now()), Err: errText})
	}
	lastErr := ErrNoCluster
	for _, ci := range st.Clusters {
		if ci.Cluster.Name() == failed.Name() {
			continue
		}
		inst, performed, err := c.deploy.ensureRunning(p, ci.Cluster, svc, spanRef{fid, root})
		if err != nil {
			c.emit(obs.Event{Kind: obs.EvFallbackFailed, Service: svc.UniqueName, Cluster: ci.Cluster.Name(), Err: err})
			lastErr = err
			continue
		}
		c.Stats.FallbackDeployments++
		c.ctr.fallbackDeploys.Inc()
		c.emit(obs.Event{Kind: obs.EvFallbackOK, Service: svc.UniqueName, Cluster: ci.Cluster.Name()})
		endFallback(ci.Cluster.Name(), "")
		return inst, ci.Cluster, performed, nil
	}
	endFallback("exhausted", lastErr.Error())
	return cluster.Instance{}, nil, false, lastErr
}

// installRedirect steers one client/service pair to an instance through the
// configured backend (per-flow rewrite rules for openflow, an ingress
// encapsulation binding for srsteer), replacing any previous decision.
func (c *Controller) installRedirect(sw *openflow.Switch, fk FlowKey, inst cluster.Instance) {
	c.steerB.InstallRedirect(sw, steer.Flow(fk), steer.Endpoint{Addr: inst.Addr, Port: inst.Port})
}

// installCloudForward makes the flow bypass further packet-ins and continue
// toward the real cloud unmodified.
func (c *Controller) installCloudForward(sw *openflow.Switch, fk FlowKey) {
	c.steerB.InstallCloudForward(sw, steer.Flow(fk))
}

// InstancePicker selects one of several ready instances of a service for a
// client (round-robin, hashing, ...).
type InstancePicker func(client simnet.Addr, insts []cluster.Instance) cluster.Instance

// RoundRobinPicker returns a picker cycling through the instances in
// order, with an independent rotation per service: interleaved picks for
// different services must not skew each other's distribution.
func RoundRobinPicker() InstancePicker {
	next := make(map[string]int)
	return func(client simnet.Addr, insts []cluster.Instance) cluster.Instance {
		svc := insts[0].Service
		in := insts[next[svc]%len(insts)]
		next[svc]++
		return in
	}
}

// pickInstance applies the configured instance picker when the cluster
// exposes several ready instances; fallback keeps the deployment result.
func (c *Controller) pickInstance(cl cluster.Cluster, client simnet.Addr, fallback cluster.Instance) cluster.Instance {
	if c.cfg.InstancePicker == nil {
		return fallback
	}
	me, ok := cl.(cluster.MultiEndpoint)
	if !ok {
		return fallback
	}
	insts := me.Endpoints(fallback.Service)
	if len(insts) < 2 {
		return fallback
	}
	return c.cfg.InstancePicker(client, insts)
}

// onIdleInstance is the FlowMemory callback: optionally scale the idle
// service down.
func (c *Controller) onIdleInstance(inst cluster.Instance) {
	if !c.cfg.AutoScaleDown {
		return
	}
	cl, ok := c.clusterByName(inst.Cluster)
	if !ok {
		return
	}
	c.k.Go("scale-down:"+inst.Service, func(p *sim.Proc) {
		// Atomically re-check idleness and mark the instance as draining:
		// the FlowMemory flags any flow pointed at it while the (slow)
		// ScaleDown runs, closing the old check-then-act window.
		if !c.Memory.BeginDrain(inst) {
			return
		}
		err := cl.ScaleDown(p, inst.Service)
		interrupted := c.Memory.EndDrain(inst)
		if err != nil {
			c.Stats.ScaleDownFailures++
			c.ctr.scaleDownFailures.Inc()
			c.emit(obs.Event{Kind: obs.EvScaleDownFailed, Service: inst.Service, Cluster: inst.Cluster, Err: err})
			return
		}
		c.emit(obs.Event{Kind: obs.EvScaledDown, Service: inst.Service, Cluster: inst.Cluster})
		if interrupted {
			// A flow was memorized to the instance mid-drain; redeploy so
			// the redirect does not point at a torn-down endpoint.
			svc, ok := c.byName[inst.Service]
			if !ok {
				return
			}
			_, performed, err := c.deploy.ensureRunning(p, cl, svc, spanRef{})
			if err != nil {
				c.emit(obs.Event{Kind: obs.EvRedeployFailed, Service: inst.Service, Err: err})
				return
			}
			if performed {
				c.Stats.Deployments++
				c.ctr.deployments.Inc()
			}
			c.emit(obs.Event{Kind: obs.EvRedeployed, Service: inst.Service, Cluster: inst.Cluster})
		}
	})
}

// EnsureDeployed drives a deployment directly (proactive deployment, and
// the building block the benchmarks use). It returns the ready instance.
func (c *Controller) EnsureDeployed(p *sim.Proc, clusterName, serviceName string) (cluster.Instance, error) {
	cl, ok := c.clusterByName(clusterName)
	if !ok {
		return cluster.Instance{}, fmt.Errorf("core: unknown cluster %q", clusterName)
	}
	svc, ok := c.byName[serviceName]
	if !ok {
		return cluster.Instance{}, fmt.Errorf("core: unknown service %q", serviceName)
	}
	inst, _, err := c.deploy.ensureRunning(p, cl, svc, spanRef{})
	return inst, err
}

// ScaleDownService scales a service down on one cluster.
func (c *Controller) ScaleDownService(p *sim.Proc, clusterName, serviceName string) error {
	cl, ok := c.clusterByName(clusterName)
	if !ok {
		return fmt.Errorf("core: unknown cluster %q", clusterName)
	}
	return cl.ScaleDown(p, serviceName)
}

// RemoveService removes a service's containers/objects from one cluster
// (the Remove phase of fig. 4). The registration stays.
func (c *Controller) RemoveService(p *sim.Proc, clusterName, serviceName string) error {
	cl, ok := c.clusterByName(clusterName)
	if !ok {
		return fmt.Errorf("core: unknown cluster %q", clusterName)
	}
	return cl.Remove(p, serviceName)
}

// Records returns a copy of the deployment records, oldest first.
func (c *Controller) Records() []DeployRecord {
	return append(make([]DeployRecord, 0, len(c.records)), c.records...)
}

// RecordsFor filters records by cluster name ("" = any) and service name
// ("" = any), skipping failed deployments (use RecordsIncluding to see
// failures too).
func (c *Controller) RecordsFor(clusterName, serviceName string) []DeployRecord {
	return c.RecordsIncluding(clusterName, serviceName, false)
}

// RecordsIncluding filters records by cluster name ("" = any) and service
// name ("" = any). includeFailed selects whether failed deployments (Err
// non-nil) are returned as well — the failure metrics and fault tests
// assert on those.
func (c *Controller) RecordsIncluding(clusterName, serviceName string, includeFailed bool) []DeployRecord {
	var out []DeployRecord
	for _, r := range c.records {
		if r.Err != nil && !includeFailed {
			continue
		}
		if clusterName != "" && r.Cluster != clusterName {
			continue
		}
		if serviceName != "" && r.Service != serviceName {
			continue
		}
		out = append(out, r)
	}
	return out
}

// ResetRecords clears the deployment records (between experiment runs).
func (c *Controller) ResetRecords() {
	c.records = nil
}

// CookieCount returns how many per-flow steering decisions the backend
// tracks (openflow: installed redirect / cloud-forward pairs; srsteer:
// controller-side bindings). Bounded: entries are released on idle expiry
// or replacement.
func (c *Controller) CookieCount() int { return c.steerB.Entries() }

// SteerStats snapshots the steering backend's data-plane footprint.
func (c *Controller) SteerStats() steer.TableStats { return c.steerB.Stats() }

// TrackedClients returns how many client location records the dispatcher
// holds. Bounded: a record is evicted when the client's last memorized
// flow (or, for cloud-forwarded clients, its switch flow) expires.
func (c *Controller) TrackedClients() int { return len(c.clientLoc) }

// ErrNoCluster is returned when a scheduler picks no cluster and no cloud
// path exists.
var ErrNoCluster = errors.New("core: no cluster available")

// DeleteImages drives the optional Delete phase of fig. 4 on one cluster:
// the cached images of a registered service are removed (shared layers
// survive while other images reference them).
func (c *Controller) DeleteImages(p *sim.Proc, clusterName, serviceName string) error {
	cl, ok := c.clusterByName(clusterName)
	if !ok {
		return fmt.Errorf("core: unknown cluster %q", clusterName)
	}
	svc, ok := c.byName[serviceName]
	if !ok {
		return fmt.Errorf("core: unknown service %q", serviceName)
	}
	del, ok := cl.(cluster.ImageDeleter)
	if !ok {
		return fmt.Errorf("core: cluster %q cannot delete images", clusterName)
	}
	return del.DeleteImages(p, svc)
}
