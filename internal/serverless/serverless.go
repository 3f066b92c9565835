// Package serverless implements the paper's future-work direction (§VIII):
// "enabling the side-by-side operation of containers and serverless
// applications" in the transparent-access approach, so its cold-start
// behavior can be evaluated in the same testbed.
//
// The platform models a WebAssembly-based serverless runtime in the spirit
// of the systems the paper cites (Gackstatter et al., Faasm, aWsm): modules
// are tiny compared to container images, and instantiating an isolated
// module costs milliseconds rather than the hundreds of milliseconds of
// namespace-heavy container starts. The platform implements the same
// cluster.Cluster interface as Docker and Kubernetes, consuming the same
// annotated service definitions (the module reference takes the place of
// the container image), so the SDN controller can deploy to it on demand
// without modification.
package serverless

import (
	"fmt"
	"maps"
	"slices"
	"time"

	"transparentedge/internal/cluster"
	"transparentedge/internal/faults"
	"transparentedge/internal/obs"
	"transparentedge/internal/registry"
	"transparentedge/internal/sim"
	"transparentedge/internal/simnet"
	"transparentedge/internal/spec"
)

// Config models the platform's latencies.
type Config struct {
	// APILatency is the per-platform-API-call overhead.
	APILatency time.Duration
	// RegisterDelay is the Create phase: registering the function
	// (metadata only — no snapshots or sandboxes to prepare).
	RegisterDelay time.Duration
	// InstantiateDelay is the cold start: compiling/instantiating the
	// module in a fresh isolation context.
	InstantiateDelay time.Duration
	// PortRangeStart is the first host port used for function endpoints.
	PortRangeStart int
}

// DefaultConfig mirrors an ahead-of-time-compiled WASM runtime on server
// hardware: single-digit-millisecond cold starts.
func DefaultConfig() Config {
	return Config{
		APILatency:       3 * time.Millisecond,
		RegisterDelay:    2 * time.Millisecond,
		InstantiateDelay: 9 * time.Millisecond,
		PortRangeStart:   34000,
	}
}

// Platform is a serverless runtime on one node, implementing
// cluster.Cluster.
type Platform struct {
	name      string
	host      *simnet.Host
	modules   *registry.Client
	behaviors cluster.BehaviorSource
	cfg       Config
	functions map[string]*function
	nextPort  int
	// ColdStarts counts instantiations (diagnostics).
	ColdStarts int
	// faults is the platform's fault injector; nil (the default) injects
	// nothing at zero cost.
	faults *faults.Injector
	// ops are the per-operation obs counters (zero value = disabled).
	ops obs.ClusterOps
}

// SetFaults attaches a fault injector (nil disables injection). Each fig. 4
// phase consults it at entry; CrashAfterStart models a module instance that
// traps immediately after instantiation, so its endpoint never opens.
func (pl *Platform) SetFaults(in *faults.Injector) { pl.faults = in }

// SetObs registers the platform's cluster_ops_total counters (nil disables).
func (pl *Platform) SetObs(reg *obs.Registry) { pl.ops = obs.NewClusterOps(reg, pl.name) }

type function struct {
	spec     spec.ContainerSpec
	running  bool
	port     int
	listener *simnet.Listener
	// generation invalidates pending instantiation completions after a
	// scale-down.
	generation int
}

// New creates a platform on host; modules are fetched via the given
// registry client (modules are distributed through the same registries as
// container images).
func New(name string, host *simnet.Host, modules *registry.Client, behaviors cluster.BehaviorSource, cfg Config) *Platform {
	if cfg.PortRangeStart <= 0 {
		cfg.PortRangeStart = 34000
	}
	return &Platform{
		name:      name,
		host:      host,
		modules:   modules,
		behaviors: behaviors,
		cfg:       cfg,
		functions: make(map[string]*function),
		nextPort:  cfg.PortRangeStart,
	}
}

// Name implements cluster.Cluster.
func (pl *Platform) Name() string { return pl.name }

// Addr implements cluster.Cluster.
func (pl *Platform) Addr() simnet.Addr { return pl.host.IP() }

// HasImages implements cluster.Cluster (modules are content-addressed like
// images).
func (pl *Platform) HasImages(a *spec.Annotated) bool {
	for _, cs := range a.Containers {
		if !pl.modules.HasImage(cs.Image) {
			return false
		}
	}
	return true
}

// Pull implements cluster.Cluster.
func (pl *Platform) Pull(p *sim.Proc, a *spec.Annotated) error {
	pl.ops.Pull.Inc()
	if err := pl.faults.PullError(p.Now()); err != nil {
		return err
	}
	for _, cs := range a.Containers {
		p.Sleep(pl.cfg.APILatency)
		if pl.modules.HasImage(cs.Image) {
			continue
		}
		if err := pl.modules.Pull(p, cs.Image); err != nil {
			return fmt.Errorf("serverless: pull %s: %w", cs.Image, err)
		}
	}
	return nil
}

// Exists implements cluster.Cluster.
func (pl *Platform) Exists(name string) bool {
	_, ok := pl.functions[name]
	return ok
}

// Running implements cluster.Cluster.
func (pl *Platform) Running(name string) bool {
	f, ok := pl.functions[name]
	return ok && f.running
}

// Create implements cluster.Cluster: register the function. A service
// definition with more than one container cannot be expressed as a single
// function.
func (pl *Platform) Create(p *sim.Proc, a *spec.Annotated) error {
	if _, dup := pl.functions[a.UniqueName]; dup {
		return fmt.Errorf("%w: %s", cluster.ErrAlreadyExists, a.UniqueName)
	}
	pl.ops.Create.Inc()
	if err := pl.faults.CreateError(p.Now()); err != nil {
		return err
	}
	if len(a.Containers) != 1 {
		return fmt.Errorf("serverless: %s: %d containers; only single-function services are supported",
			a.UniqueName, len(a.Containers))
	}
	cs := a.Containers[0]
	if !pl.modules.HasImage(cs.Image) {
		return fmt.Errorf("serverless: module %s not present (pull first)", cs.Image)
	}
	p.Sleep(pl.cfg.APILatency + pl.cfg.RegisterDelay)
	pl.functions[a.UniqueName] = &function{spec: cs}
	return nil
}

// ScaleUp implements cluster.Cluster: instantiate the module. The endpoint
// opens after the (tiny) module init delay.
func (pl *Platform) ScaleUp(p *sim.Proc, name string) (cluster.Instance, error) {
	f, ok := pl.functions[name]
	if !ok {
		return cluster.Instance{}, fmt.Errorf("%w: %s", cluster.ErrNotCreated, name)
	}
	if f.running {
		return pl.instance(name, f), nil
	}
	pl.ops.ScaleUp.Inc()
	if err := pl.faults.ScaleUpError(p.Now()); err != nil {
		return cluster.Instance{}, err
	}
	p.Sleep(pl.cfg.APILatency + pl.cfg.InstantiateDelay)
	if f.port == 0 {
		f.port = pl.nextPort
		pl.nextPort++
	}
	f.running = true
	f.generation++
	gen := f.generation
	pl.ColdStarts++
	if pl.faults.CrashAfterStart() {
		// The instance traps right after instantiation: no listener is ever
		// scheduled and the platform marks the function idle, so the
		// endpoint never opens and only the caller's port probing notices.
		f.running = false
		return pl.instance(name, f), nil
	}
	b := pl.behaviors.Behavior(f.spec.Image)
	pl.host.Network().K.After(b.InitDelay, func() {
		if !f.running || f.generation != gen {
			return
		}
		f.listener = pl.host.ServeHTTPAsync(f.port, b.AsyncHandler())
	})
	return pl.instance(name, f), nil
}

// ScaleDown implements cluster.Cluster.
func (pl *Platform) ScaleDown(p *sim.Proc, name string) error {
	f, ok := pl.functions[name]
	if !ok {
		return fmt.Errorf("%w: %s", cluster.ErrNotCreated, name)
	}
	pl.ops.ScaleDown.Inc()
	if err := pl.faults.ScaleDownError(p.Now()); err != nil {
		return err
	}
	if !f.running {
		return nil
	}
	p.Sleep(pl.cfg.APILatency)
	f.running = false
	if f.listener != nil {
		f.listener.Close()
		f.listener = nil
	}
	return nil
}

// Remove implements cluster.Cluster.
func (pl *Platform) Remove(p *sim.Proc, name string) error {
	if _, ok := pl.functions[name]; !ok {
		return fmt.Errorf("%w: %s", cluster.ErrUnknownService, name)
	}
	if err := pl.ScaleDown(p, name); err != nil {
		return err
	}
	p.Sleep(pl.cfg.APILatency)
	delete(pl.functions, name)
	return nil
}

// Endpoint implements cluster.Cluster.
func (pl *Platform) Endpoint(name string) (cluster.Instance, bool) {
	f, ok := pl.functions[name]
	if !ok || !f.running || f.port == 0 {
		return cluster.Instance{}, false
	}
	return pl.instance(name, f), true
}

// Services implements cluster.Cluster.
func (pl *Platform) Services() []string {
	return slices.Sorted(maps.Keys(pl.functions))
}

func (pl *Platform) instance(name string, f *function) cluster.Instance {
	return cluster.Instance{Service: name, Cluster: pl.name, Addr: pl.host.IP(), Port: f.port}
}
