package core

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
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
	// Counters, when set, is where the controller registers the reader of
	// its counts (dispatch outcomes by kind, FlowMemory hits/misses/
	// evictions/drains, deploy retries and failures by phase and cluster).
	// The counts are kept either way; nil registers nothing.
	Counters *obs.Registry
	// Steering selects how dispatch decisions reach the data plane: nil
	// picks the paper's per-flow rule installs (steer.NewOpenFlow); the
	// stateless SRv6-style alternative is srsteer.New (DESIGN.md §4). The
	// controller Binds the backend at construction — supply a fresh value
	// per controller.
	Steering steer.Steering
}

// DefaultProbeMaxWait is the default overall readiness-probing bound —
// generous enough that every legitimate container start (including the
// slowest image's init) finishes well inside it, so it only fires on
// genuinely dead instances.
const DefaultProbeMaxWait = 5 * time.Minute

const (
	// probeDialTimeout bounds a single probe attempt.
	probeDialTimeout = 500 * time.Millisecond
	// deployBackoffBase starts the capped exponential backoff between retry
	// attempts: base, 2*base, 4*base, ... capped at deployBackoffMax.
	deployBackoffBase = 50 * time.Millisecond
	deployBackoffMax  = 2 * time.Second
	// stateQueryLatency is charged per cluster when the Dispatcher gathers
	// the list of existing and running instances (fig. 7) — the Docker /
	// Kubernetes API round trips of the paper's Python client libraries.
	// Memory-served requests skip this entirely (§V).
	stateQueryLatency = 8 * time.Millisecond
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

// serviceKey is a registered service address, the VIP by its number.
type serviceKey struct {
	vip  uint32
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
	// Handovers counts NoteHandover calls; HandoverReAnchors counts flows
	// re-anchored eagerly at handover time (stateless backends only —
	// rule-based backends re-anchor lazily at the next packet-in).
	Handovers         uint64
	HandoverReAnchors uint64
	// ScaleDownFailures counts idle-instance scale-downs the cluster
	// refused.
	ScaleDownFailures uint64
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
	// net is the network of the probe host and the switches, whose address
	// numbers packet-ins carry; services, clientLoc and pendingHO are keyed
	// by them.
	net       *simnet.Network
	services  map[serviceKey]*spec.Annotated
	byName    map[string]*spec.Annotated
	regByName map[string]spec.Registration
	defs      map[string]*spec.Definition // by YAML source, parsed once, read-only
	Memory    *FlowMemory
	deploy    *deployer
	records   []DeployRecord
	// clientLoc is each client's location record by the client's number, nil
	// for none; located counts the records.
	clientLoc []*openflow.Switch
	located   int
	// pendingHO records, by client number, the handovers a rule-based
	// backend has not yet resolved (see handover.go; from is nil for none),
	// and pending counts them; gaps collects one continuity-gap sample per
	// resolved handover of a client with live flows. transit holds the
	// switches attached without punt rules (AddTransitSwitch).
	pendingHO []pendingHandover
	pending   int
	gaps      *metrics.Hist
	transit   []*openflow.Switch
	// steerB is the pluggable data-plane mechanism (DESIGN.md §4): the
	// per-flow rule installer by default, or the stateless SRv6-style
	// backend. All install/uninstall/GC flows through it.
	steerB    steer.Steering
	predictor Predictor
	Stats     Stats
	// events is the resolved structured-event sink (nil = silent); tr is
	// the optional tracing sink from Config.
	events func(obs.Event)
	tr     *obs.Tracer
	// freeDispatch recycles the per-dispatch records (dispatchRec); it holds
	// at most the most dispatches ever in flight at once.
	freeDispatch []*dispatchRec
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
	if cfg.ProbeMaxWait == 0 {
		cfg.ProbeMaxWait = DefaultProbeMaxWait
	}
	c := &Controller{
		k:          k,
		cfg:        cfg,
		probeHost:  probeHost,
		clusterIdx: make(map[string]int),
		net:        probeHost.Network(),
		services:   make(map[serviceKey]*spec.Annotated),
		byName:     make(map[string]*spec.Annotated),
		regByName:  make(map[string]spec.Registration),
		defs:       make(map[string]*spec.Definition),
		gaps:       metrics.NewHist("continuity_gap"),
	}
	c.Memory = NewFlowMemory(k, cfg.MemoryIdleTimeout)
	c.Memory.ids = &c.net.Numbering
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
	c.tr = cfg.Trace
	c.events = cfg.Events
	if reg := cfg.Counters; reg != nil {
		reg.Register(c.readCounts)
		c.Memory.SetObs(reg)
	}
	return c
}

// readCounts emits the controller's counts: its Stats, and deploy retries
// by cluster and phase and deploy failures by cluster, which appear with
// the first one.
func (c *Controller) readCounts(add func(obs.Sample)) {
	counter := func(name string, v uint64) { add(obs.Sample{Name: name, Kind: "counter", Value: float64(v)}) }
	s := &c.Stats
	counter("dispatch_packet_ins_total", s.PacketIns)
	counter("dispatch_memory_served_total", s.MemoryServed)
	counter("dispatch_cloud_forwards_total", s.CloudForwards)
	counter("dispatch_cloud_fallbacks_total", s.CloudFallbacks)
	counter("dispatch_fallback_deployments_total", s.FallbackDeployments)
	counter("deploy_performed_total", s.Deployments)
	counter("dispatch_redirections_total", s.Redirections)
	counter("deploy_scale_down_failures_total", s.ScaleDownFailures)
	counter("handover_events_total", s.Handovers)
	counter("handover_reanchors_total", s.HandoverReAnchors)
	for k, n := range c.deploy.retries {
		counter(`deploy_retries_total{cluster="`+k.cluster+`",phase="`+k.phase+`"}`, n)
	}
	for _, r := range c.records {
		if r.Err != nil {
			counter(`deploy_failures_total{cluster="`+r.Cluster+`"}`, 1)
		}
	}
}

// emit hands a structured event to the configured sink (Config.Events),
// which reads the virtual time from the kernel if it wants it. Nil sink: the
// event struct is built but nothing else happens — all emit sites are off
// the memory-served hot path.
func (c *Controller) emit(e obs.Event) {
	if c.events == nil {
		return
	}
	c.events(e)
}

// AddSwitch attaches the controller to a switch and installs the packet-in
// punt rules for every registered service. The switch must be in the probe
// host's network, whose address numbers the controller keys by.
func (c *Controller) AddSwitch(sw *openflow.Switch) {
	c.sameNetwork(sw)
	c.switches = append(c.switches, sw)
	sw.SetController(c)
	c.steerB.AttachSwitch(sw)
	// In address order: the switch numbers the punt rules' cookies in the
	// order they come, and a walk of the map would shuffle them.
	keys := slices.SortedFunc(maps.Keys(c.services), func(a, b serviceKey) int {
		return cmp.Or(cmp.Compare(a.vip, b.vip), cmp.Compare(a.port, b.port))
	})
	for _, k := range keys {
		c.installPunt(sw, c.services[k].Reg)
	}
}

// sameNetwork panics unless sw is in c's network: a packet-in from another
// network would carry numbers of other addresses.
func (c *Controller) sameNetwork(sw *openflow.Switch) {
	if sw.Network() != c.net {
		panic(fmt.Sprintf("core: switch %s is not in the controller's network", sw.Name()))
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
// (once per distinct source) and annotated (§V), and every switch gets a
// punt rule so requests to the service address reach the controller.
func (c *Controller) RegisterService(yamlSrc string, reg spec.Registration) (*spec.Annotated, error) {
	def := c.defs[yamlSrc]
	if def == nil {
		var err error
		if def, err = spec.Parse(yamlSrc); err != nil {
			return nil, err
		}
		c.defs[yamlSrc] = def
	}
	a, err := spec.Annotate(def, reg, spec.Options{SchedulerName: c.cfg.LocalSchedulerName})
	if err != nil {
		return nil, err
	}
	key := serviceKey{c.net.Number(reg.VIP), reg.Port}
	if _, dup := c.services[key]; dup {
		return nil, fmt.Errorf("core: service address %s:%d already registered", reg.VIP, reg.Port)
	}
	c.services[key] = a
	c.byName[a.UniqueName] = a
	c.regByName[a.UniqueName] = reg
	for _, sw := range c.switches {
		c.installPunt(sw, reg)
	}
	c.emit(obs.Event{Kind: obs.EvRegistered, Service: a.UniqueName, Addr: string(reg.VIP), Port: reg.Port})
	return a, nil
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

func (c *Controller) installPunt(sw *openflow.Switch, reg spec.Registration) {
	sw.AddFlow(openflow.FlowRule{
		Priority: puntPriority,
		Match:    openflow.Match{DstIP: reg.VIP, DstPort: reg.Port},
		Actions:  openflow.Actions{Output: openflow.OutputController},
	})
}

// ClientLocation returns the switch a client was last seen at: the
// dispatcher's location record (§IV-B: "this component also tracks the
// clients' current location").
func (c *Controller) ClientLocation(ip simnet.Addr) (*openflow.Switch, bool) {
	sw := c.location(c.net.Lookup(ip))
	return sw, sw != nil
}

// location returns the switch the client numbered client was last seen at,
// or nil.
func (c *Controller) location(client uint32) *openflow.Switch {
	if int(client) < len(c.clientLoc) {
		return c.clientLoc[client]
	}
	return nil
}

// locate records that the client numbered client is at sw.
func (c *Controller) locate(client uint32, sw *openflow.Switch) {
	for int(client) >= len(c.clientLoc) {
		c.clientLoc = append(c.clientLoc, nil)
	}
	if c.clientLoc[client] == nil {
		c.located++
	}
	c.clientLoc[client] = sw
}

// HandlePacketIn implements openflow.Controller: the fig. 7 dispatching
// algorithm. Runs in kernel context; a FlowMemory miss becomes a dispatch
// continuation (dispatchRec) while the packet stays held.
func (c *Controller) HandlePacketIn(ev openflow.PacketIn) {
	pkt := ev.Packet
	c.Stats.PacketIns++
	// The previous location is captured before the update: a memory hit at
	// a different switch is a handover and re-anchors the steering state.
	client := pkt.SrcID
	prev := c.location(client)
	c.locate(client, ev.Switch)
	svc, ok := c.services[serviceKey{pkt.DstID, pkt.DstPort}]
	if !ok {
		// Not a registered service: forward normally.
		ev.Switch.PacketOut(pkt, openflow.Actions{Output: openflow.OutputNormal})
		return
	}
	if c.predictor != nil {
		c.predictor.Observe(svc.UniqueName, c.k.Now())
	}
	fk := FlowKey{Client: pkt.SrcIP, VIP: pkt.DstIP, Port: pkt.DstPort}
	id := flowID{client, pkt.DstID, pkt.DstPort}
	if e := c.Memory.get(id); e != nil && c.instanceAlive(e.Instance) {
		// Memorized flow: reinstall steering without scheduling (§V). A hit
		// from a new attachment point is a handover — the steering state is
		// re-anchored there and the stale switch's state released eagerly.
		c.Stats.MemoryServed++
		// After an explicit NoteHandover the location record already points
		// at this switch, so the stale anchor — where the rules actually
		// live — is the pending record's `from`, not prev.
		from := prev
		if ph := c.pendingOf(client); ph.from != nil {
			from = ph.from
		}
		action := "flow_install"
		if from != nil && from != ev.Switch {
			c.steerB.ReAnchor(from, ev.Switch, steer.Flow(fk), steer.Endpoint{Addr: e.Instance.Addr, Port: e.Instance.Port})
			action = "reanchor"
		} else {
			c.installRedirect(ev.Switch, fk, e.Instance)
		}
		c.resolveHandover(client, action, ev.Switch)
		ev.Switch.TableOut(pkt)
		if tr := c.tr; tr != nil {
			now := time.Duration(c.k.Now())
			root := tr.NextID()
			tr.Emit(obs.Span{ID: root, Root: root, Name: "dispatch", Cat: "dispatch",
				Detail: svc.UniqueName + "<-" + string(fk.Client), Start: now, End: now})
			tr.Emit(obs.Span{Parent: root, Root: root, Name: "memory_hit", Cat: "flowmemory",
				Detail: e.Instance.Cluster, Start: now, End: now})
		}
		return
	}
	// The dispatch span's ID is allocated at intercept time so the tree is
	// rooted there; zero when tracing is off. The first step is one
	// zero-delay event out, where a process started here would begin.
	d := c.newDispatch()
	d.ev, d.svc, d.fk, d.id = ev, svc, fk, id
	d.root, d.t0 = c.tr.NextID(), time.Duration(c.k.Now())
	d.Sleep(0, (*dispatchRec).stateQuery)
}

// dispatchRec is one dispatched packet-in: a continuation (sim.Cont) whose
// steps run the fig. 7 algorithm, recycled through the controller's free
// list and bound to its kernel once. It holds the packet-in's fields, the
// state-query buffers (the candidate clusters with the endpoints the
// scheduler's ClusterInfo slice points into) and the scheduler's Choice; the
// State and Choice built from them are valid until the dispatch ends.
type dispatchRec struct {
	sim.Cont[dispatchRec]
	c      *Controller
	ev     openflow.PacketIn
	svc    *spec.Annotated
	fk     FlowKey
	id     flowID        // fk by number
	root   uint64        // dispatch span ID (0 with tracing off)
	t0     time.Duration // intercept time
	cands  []candidate
	infos  []ClusterInfo
	choice Choice
}

func (c *Controller) newDispatch() *dispatchRec {
	if n := len(c.freeDispatch); n > 0 {
		d := c.freeDispatch[n-1]
		c.freeDispatch[n-1] = nil
		c.freeDispatch = c.freeDispatch[:n-1]
		return d
	}
	d := &dispatchRec{c: c}
	d.Init(c.k, d, 0)
	return d
}

// free ends the dispatch and returns d to the free list.
func (d *dispatchRec) free() {
	d.ev, d.svc, d.choice = openflow.PacketIn{}, nil, Choice{}
	d.c.freeDispatch = append(d.c.freeDispatch, d)
}

// HandleFlowRemoved implements openflow.Controller: the controller-state
// GC hook. The redirect / cloud-forward rules the controller installs ask
// for a flow-removed notification, so when a pair idle-expires the cookie
// bookkeeping for its client/service pair is released.
func (c *Controller) HandleFlowRemoved(sw *openflow.Switch, rule *openflow.FlowRule) {
	// Only the forward rule of a pair notifies; its match carries the
	// original flow key (client -> VIP:port) and the client's number. The
	// backend releases its own bookkeeping and reports whether the flow's
	// steering expired.
	if _, ok := c.steerB.FlowRemoved(sw, rule); ok {
		client, _ := rule.MatchIDs()
		c.clientExpired(client)
	}
}

// steeringExpired is where a backend without flow-removed notices (the
// stateless one) reports a flow whose steering state idled out.
func (c *Controller) steeringExpired(f steer.Flow) {
	c.clientExpired(c.net.Lookup(f.Client))
}

// clientExpired follows a client's expired steering state. A client whose
// last memorized flow is also gone needs no location record anymore — the
// next packet-in re-learns it — so cloud-forwarded clients (which never enter
// the FlowMemory) are evicted here too.
func (c *Controller) clientExpired(client uint32) {
	if c.Memory.client(client).n == 0 {
		c.dropHandoverState(client)
	}
}

// onIdleClient is the FlowMemory callback: the client's last memorized
// flow expired, so its location record is dropped (re-learned on the next
// packet-in). Keeps clientLoc bounded by the set of active clients.
func (c *Controller) onIdleClient(_ simnet.Addr, client uint32) {
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

// candidate is one cluster a state query goes to.
type candidate struct {
	i  int              // index in Controller.clusters
	ep cluster.Instance // its endpoint, which the cluster's ClusterInfo points to
}

// candidates resets d's state buffers to the clusters svc's runtime class can
// run on and returns how many there are. The buffers are sized for every
// cluster, so no append moves an endpoint a ClusterInfo points to.
func (d *dispatchRec) candidates() int {
	c := d.c
	if n := len(c.clusters); cap(d.cands) < n {
		d.cands, d.infos = make([]candidate, 0, n), make([]ClusterInfo, 0, n)
	}
	allowed := runtimeClassKinds[d.svc.RuntimeClass]
	d.cands, d.infos = d.cands[:0], d.infos[:0]
	for i, e := range c.clusters {
		if allowed != nil && !allowed[e.kind] {
			continue
		}
		d.cands = append(d.cands, candidate{i: i})
	}
	return len(d.cands)
}

// sample reads the candidates one state-query latency has paid for — all of
// them, or the next one under SerialStateQueries — and reports whether every
// candidate has answered.
func (d *dispatchRec) sample() bool {
	c := d.c
	for n := len(d.infos); n < len(d.cands); n++ {
		cd := &d.cands[n]
		d.infos = append(d.infos, c.queryCluster(cd.i, d.svc, d.fk.Client, &cd.ep))
		if c.cfg.SerialStateQueries {
			break
		}
	}
	return len(d.infos) == len(d.cands)
}

// state orders the answers by distance into the scheduler's input.
func (d *dispatchRec) state() State {
	slices.SortStableFunc(d.infos, func(a, b ClusterInfo) int { return cmp.Compare(a.Distance, b.Distance) })
	return State{Service: d.svc, ClientIP: d.fk.Client, Clusters: d.infos}
}

// buildState is the state query on a process: the proactive deployer's.
func (c *Controller) buildState(p *sim.Proc, d *dispatchRec) State {
	if d.candidates() > 0 {
		for p.Sleep(stateQueryLatency); !d.sample(); p.Sleep(stateQueryLatency) {
		}
	}
	return d.state()
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
	}
	if c.cfg.Distance != nil {
		info.Distance = c.cfg.Distance(client, e.c)
	} else {
		info.Distance = i
	}
	return info
}

// stateQuery is the dispatch's first step, one zero-delay event after the
// packet-in: it picks the candidate clusters and sends their fig. 7 state
// queries, which gather the Global Scheduler's inputs. Each takes the same
// constant latency, so queries sent together all answer in the same instant:
// one latency is charged and the clusters are sampled in candidate order.
// Config.SerialStateQueries restores the paper's one-after-another queries
// (latency = sum over clusters).
func (d *dispatchRec) stateQuery() sim.Step[dispatchRec] {
	if tr := d.c.tr; tr != nil {
		tr.Emit(obs.Span{Parent: d.root, Root: d.root, Name: "memory_miss", Cat: "flowmemory", Start: d.t0, End: d.t0})
	}
	if d.candidates() == 0 {
		return (*dispatchRec).decide
	}
	d.Sleep(stateQueryLatency, (*dispatchRec).query)
	return nil
}

// query samples what the latest state-query latency paid for, and pays for
// the next serial query until every candidate has answered.
func (d *dispatchRec) query() sim.Step[dispatchRec] {
	if d.sample() {
		return (*dispatchRec).decide
	}
	d.Sleep(stateQueryLatency, (*dispatchRec).query)
	return nil
}

// decide asks the Global Scheduler and acts on its choice. A cloud forward,
// and a redirect to an instance that is ready with no deployment of it
// pending, finish inline; anything that can block on a deployment goes on to
// a process (deploy).
func (d *dispatchRec) decide() sim.Step[dispatchRec] {
	c, svc := d.c, d.svc
	st := d.state()
	d.choice = c.cfg.Scheduler.Choose(st)
	if tr := c.tr; tr != nil {
		now := time.Duration(c.k.Now())
		tr.Emit(obs.Span{Parent: d.root, Root: d.root, Name: "state_query", Cat: "dispatch",
			Detail: fmt.Sprintf("%d clusters", len(st.Clusters)), Start: d.t0, End: now})
		target := "cloud"
		if d.choice.Fast != nil {
			target = d.choice.Fast.Cluster.Name()
		}
		tr.Emit(obs.Span{Parent: d.root, Root: d.root, Name: "schedule", Cat: "dispatch",
			Detail: target, Start: now, End: now})
	}
	if d.choice.Fast == nil {
		// No edge location can serve the request now: forward toward the
		// cloud (fig. 1), still installing a flow so subsequent packets
		// bypass the controller.
		c.Stats.CloudForwards++
		c.emit(obs.Event{Kind: obs.EvCloudForward, Service: svc.UniqueName, Client: string(d.fk.Client)})
		d.forward("", "")
	} else if inst, ok := c.deploy.serveReady(d.choice.Fast.Cluster, svc, spanRef{d.root, d.root}); ok {
		d.redirect(inst)
	} else {
		d.Go("dispatch", (*dispatchRec).deploy)
		return nil
	}
	d.deployBest()
	d.free()
	return nil
}

// deploy is the process a dispatch blocks on while the chosen cluster
// deploys the service, or another dispatch's deployment of it finishes.
func (d *dispatchRec) deploy(p *sim.Proc) {
	c, svc := d.c, d.svc
	// performed (not the pre-dedup Running bit of the scheduler state)
	// decides the Deployments count: concurrent requests that joined one
	// in-flight deployment must not double-count it.
	target := d.choice.Fast.Cluster
	inst, performed, err := c.deploy.ensureRunning(p, target, svc, spanRef{d.root, d.root})
	if err != nil {
		// Degradation ladder: the chosen cluster failed even after retries,
		// so walk the remaining candidates in distance order before giving
		// the request up to the cloud.
		c.emit(obs.Event{Kind: obs.EvDeployFailed, Service: svc.UniqueName, Cluster: target.Name(), Err: err})
		inst, performed, err = d.fallbackDeploy(p, target)
	}
	if err != nil {
		// Every edge candidate failed: degrade to cloud forwarding — the
		// held packet is still released, never dropped.
		c.emit(obs.Event{Kind: obs.EvAllEdgeFailed, Service: svc.UniqueName, Client: string(d.fk.Client), Err: err})
		c.Stats.CloudForwards++
		c.Stats.CloudFallbacks++
		d.forward("fallback", err.Error())
		d.free()
		return
	}
	if performed {
		c.Stats.Deployments++
	}
	d.redirect(inst)
	d.deployBest()
	d.free()
}

// redirect memorizes the flow to inst, steers it there and releases the held
// packet. Rules and packet go to the client's *current* switch: a handover
// while the dispatch ran means they belong at the new switch, not the one
// that punted the packet (which the client already left).
func (d *dispatchRec) redirect(inst cluster.Instance) {
	c := d.c
	e := c.Memory.put(d.fk, d.id, inst)
	sw := c.currentSwitch(d.id.client, d.ev.Switch)
	c.installRedirect(sw, d.fk, e.Instance)
	c.resolveHandover(d.id.client, "flow_install", sw)
	sw.TableOut(d.ev.Packet)
	if tr := c.tr; tr != nil {
		now := time.Duration(c.k.Now())
		tr.Emit(obs.Span{Parent: d.root, Root: d.root, Name: "flow_install", Cat: "dispatch",
			Detail: inst.Cluster, Start: now, End: now})
	}
	d.endRoot("")
	c.emit(obs.Event{Kind: obs.EvDispatched, Service: d.svc.UniqueName, Client: string(d.fk.Client),
		Cluster: inst.Cluster, Addr: string(inst.Addr), Port: inst.Port})
}

// forward installs a cloud-forward pair at the client's current switch and
// releases the held packet there; detail and errText annotate the spans.
func (d *dispatchRec) forward(detail, errText string) {
	c := d.c
	sw := c.currentSwitch(d.id.client, d.ev.Switch)
	c.installCloudForward(sw, d.fk)
	c.resolveHandover(d.id.client, "cloud_forward", sw)
	sw.TableOut(d.ev.Packet)
	if tr := c.tr; tr != nil {
		now := time.Duration(c.k.Now())
		tr.Emit(obs.Span{Parent: d.root, Root: d.root, Name: "cloud_forward", Cat: "dispatch",
			Detail: detail, Start: now, End: now})
	}
	d.endRoot(errText)
}

// endRoot closes the dispatch root span at the current virtual time; every
// dispatch calls it exactly once.
func (d *dispatchRec) endRoot(errText string) {
	if tr := d.c.tr; tr != nil {
		tr.Emit(obs.Span{ID: d.root, Root: d.root, Name: "dispatch", Cat: "dispatch",
			Detail: d.svc.UniqueName + "<-" + string(d.fk.Client), Start: d.t0, End: time.Duration(d.c.k.Now()), Err: errText})
	}
}

// deployBest is on-demand deployment *without waiting*: when the scheduler
// served the request from elsewhere, deploy the BEST location in the
// background and re-point future requests once it runs (fig. 3).
func (d *dispatchRec) deployBest() {
	choice := d.choice
	if choice.Best == nil || (choice.Fast != nil && choice.Best.Cluster.Name() == choice.Fast.Cluster.Name()) {
		return
	}
	c, svc, best := d.c, d.svc, choice.Best.Cluster
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
		}
		n := c.Memory.RedirectService(svc.UniqueName, inst)
		c.Stats.Redirections += uint64(n)
		c.emit(obs.Event{Kind: obs.EvOptimalReady, Service: svc.UniqueName, Cluster: best.Name(),
			Addr: string(inst.Addr), Port: inst.Port, N: n})
		endBest("")
	})
}

// fallbackDeploy walks the scheduler state's remaining candidate clusters
// (already sorted by distance) after the first choice failed, returning the
// first successful deployment. The caller falls back to the cloud path when
// every candidate errors.
func (d *dispatchRec) fallbackDeploy(p *sim.Proc, failed cluster.Cluster) (cluster.Instance, bool, error) {
	c, svc, root := d.c, d.svc, d.root
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
	for _, ci := range d.infos {
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
		c.emit(obs.Event{Kind: obs.EvFallbackOK, Service: svc.UniqueName, Cluster: ci.Cluster.Name()})
		endFallback(ci.Cluster.Name(), "")
		return inst, performed, nil
	}
	endFallback("exhausted", lastErr.Error())
	return cluster.Instance{}, false, lastErr
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
func (c *Controller) TrackedClients() int { return c.located }

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
