// Package container models a containerd-like container runtime on one node:
// a content store of pulled images (via registry.Client), and container
// lifecycle (create → start → ready → stop → remove) with a startup-latency
// model.
//
// The startup model follows the paper's §VI observation (after Mohan et
// al.): container start time is dominated by runtime work — network
// namespace and rootfs setup — not by image size, which is why the 6 KiB
// assembler web server and the 135 MiB Nginx image start in near-identical
// time. App readiness (the port opening) additionally costs an app-specific
// init delay (e.g. TensorFlow Serving loading a ResNet50 model).
package container

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"transparentedge/internal/registry"
	"transparentedge/internal/sim"
	"transparentedge/internal/simnet"
)

// State is a container lifecycle state.
type State int

// Lifecycle states.
const (
	StateCreated State = iota + 1
	StateRunning       // process started (app may still be initializing)
	StateStopped
	StateRemoved
)

func (s State) String() string {
	switch s {
	case StateCreated:
		return "created"
	case StateRunning:
		return "running"
	case StateStopped:
		return "stopped"
	case StateRemoved:
		return "removed"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Errors returned by runtime operations.
var (
	ErrImageNotPresent = errors.New("container: image not present (pull first)")
	ErrBadState        = errors.New("container: operation invalid in current state")
	ErrDuplicateName   = errors.New("container: duplicate container name")
	ErrNotFound        = errors.New("container: no such container")
)

// Mount maps a host path into the container (the paper's Nginx+Py service
// shares a folder between its two containers this way).
type Mount struct {
	Name          string
	HostPath      string
	ContainerPath string
}

// Config describes one container to create.
type Config struct {
	Name  string
	Image string // image ref; must be pulled before Create
	// AppPort is the port the app listens on (0 = app exposes no port,
	// e.g. the Python env-writer sidecar).
	AppPort int
	// InitDelay is the time from process start until the app's port opens
	// (model loading, config parsing, ...).
	InitDelay time.Duration
	// AsyncHandler serves the app's requests once ready (nil for non-HTTP
	// apps).
	AsyncHandler simnet.HTTPAsyncHandler
	Labels       map[string]string
	Env          map[string]string
	Mounts       []Mount
}

// RuntimeConfig models the node-level lifecycle costs.
type RuntimeConfig struct {
	// CreateDelay covers snapshot preparation and container metadata
	// writes.
	CreateDelay time.Duration
	// StartDelay covers namespace/cgroup/rootfs setup and process exec —
	// the dominant cold-start cost per Mohan et al.
	StartDelay time.Duration
	// StopDelay and RemoveDelay cover SIGTERM handling and snapshot GC.
	StopDelay   time.Duration
	RemoveDelay time.Duration
}

// DefaultRuntimeConfig reflects containerd on server-class x86 (the EGS).
func DefaultRuntimeConfig() RuntimeConfig {
	return RuntimeConfig{
		CreateDelay: 45 * time.Millisecond,
		StartDelay:  320 * time.Millisecond,
		StopDelay:   60 * time.Millisecond,
		RemoveDelay: 40 * time.Millisecond,
	}
}

// Runtime is the per-node container runtime.
type Runtime struct {
	host       *simnet.Host
	images     *registry.Client
	cfg        RuntimeConfig
	containers map[string]*Container
	// Starts counts container starts (diagnostics).
	Starts int
}

// NewRuntime creates a runtime on host using images for pulls.
func NewRuntime(host *simnet.Host, images *registry.Client, cfg RuntimeConfig) *Runtime {
	return &Runtime{
		host:       host,
		images:     images,
		cfg:        cfg,
		containers: make(map[string]*Container),
	}
}

// Host returns the node the runtime runs on.
func (r *Runtime) Host() *simnet.Host { return r.host }

// Images returns the runtime's image/content store client.
func (r *Runtime) Images() *registry.Client { return r.images }

// PullImage fetches an image into the content store (no-op if present).
func (r *Runtime) PullImage(p *sim.Proc, ref string) error {
	if r.images.HasImage(ref) {
		return nil
	}
	return r.images.Pull(p, ref)
}

// HasImage reports whether ref is fully present locally.
func (r *Runtime) HasImage(ref string) bool { return r.images.HasImage(ref) }

// Container is one created container instance.
type Container struct {
	rt       *Runtime
	cfg      Config
	state    State
	hostPort int
	listener *simnet.Listener
	ready    bool
	readyAt  sim.Time
	// generation guards against a stale init event marking a restarted
	// container ready.
	generation int
}

// Name returns the container name.
func (c *Container) Name() string { return c.cfg.Name }

// Config returns the container's configuration.
func (c *Container) Config() Config { return c.cfg }

// State returns the lifecycle state.
func (c *Container) State() State { return c.state }

// HostPort returns the host port the app is exposed on (0 if none).
func (c *Container) HostPort() int { return c.hostPort }

// Ready reports whether the app's port is open and serving.
func (c *Container) Ready() bool { return c.ready }

// ReadyAt returns when the container last became ready.
func (c *Container) ReadyAt() sim.Time { return c.readyAt }

// Labels returns the container labels.
func (c *Container) Labels() map[string]string { return c.cfg.Labels }

// Create makes a new container from cfg. The image must be present.
func (r *Runtime) Create(p *sim.Proc, cfg Config) (*Container, error) {
	if cfg.Name == "" {
		return nil, errors.New("container: empty name")
	}
	if _, dup := r.containers[cfg.Name]; dup {
		return nil, fmt.Errorf("%w: %q", ErrDuplicateName, cfg.Name)
	}
	if !r.images.HasImage(cfg.Image) {
		return nil, fmt.Errorf("%w: %q", ErrImageNotPresent, cfg.Image)
	}
	p.Sleep(r.cfg.CreateDelay)
	c := &Container{rt: r, cfg: cfg, state: StateCreated}
	r.containers[cfg.Name] = c
	return c, nil
}

// Get returns the container with the given name.
func (r *Runtime) Get(name string) (*Container, bool) {
	c, ok := r.containers[name]
	return c, ok
}

// List returns containers sorted by name, optionally filtered by labels
// (all given labels must match).
func (r *Runtime) List(labels map[string]string) []*Container {
	var out []*Container
	for _, c := range r.containers {
		if matchLabels(c.cfg.Labels, labels) {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].cfg.Name < out[j].cfg.Name })
	return out
}

func matchLabels(have, want map[string]string) bool {
	for k, v := range want {
		if have[k] != v {
			return false
		}
	}
	return true
}

// Start launches the container process. hostPort is the node port to expose
// AppPort on (ignored when AppPort is 0). Start returns once the process is
// running; app readiness follows after InitDelay, at which point the port
// opens. Callers that need readiness must probe (as the SDN controller
// does) or use AwaitReady.
func (c *Container) Start(p *sim.Proc, hostPort int) error {
	if c.state != StateCreated && c.state != StateStopped {
		return fmt.Errorf("%w: start in %s", ErrBadState, c.state)
	}
	p.Sleep(c.rt.cfg.StartDelay)
	c.state = StateRunning
	c.rt.Starts++
	c.generation++
	gen := c.generation
	if c.cfg.AppPort > 0 {
		c.hostPort = hostPort
	}
	c.rt.host.Network().K.After(c.cfg.InitDelay, func() {
		if c.state != StateRunning || c.generation != gen {
			return
		}
		c.ready = true
		c.readyAt = c.rt.host.Network().K.Now()
		if c.cfg.AppPort > 0 && c.cfg.AsyncHandler != nil {
			c.listener = c.rt.host.ServeHTTPAsync(c.hostPort, c.cfg.AsyncHandler)
		}
	})
	return nil
}

// AwaitReady blocks until the container reports ready (local-knowledge
// convenience for tests; the controller uses network probes instead).
func (c *Container) AwaitReady(p *sim.Proc, pollEvery time.Duration) {
	for !c.ready {
		p.Sleep(pollEvery)
	}
}

// Stop terminates the app process and closes its port.
func (c *Container) Stop(p *sim.Proc) error {
	if c.state != StateRunning {
		return fmt.Errorf("%w: stop in %s", ErrBadState, c.state)
	}
	p.Sleep(c.rt.cfg.StopDelay)
	c.teardown()
	c.state = StateStopped
	return nil
}

func (c *Container) teardown() {
	c.ready = false
	if c.listener != nil {
		c.listener.Close()
		c.listener = nil
	}
}

// Remove deletes the container (stopping it first if needed).
func (c *Container) Remove(p *sim.Proc) error {
	if c.state == StateRemoved {
		return fmt.Errorf("%w: remove in %s", ErrBadState, c.state)
	}
	if c.state == StateRunning {
		if err := c.Stop(p); err != nil {
			return err
		}
	}
	p.Sleep(c.rt.cfg.RemoveDelay)
	c.state = StateRemoved
	delete(c.rt.containers, c.cfg.Name)
	return nil
}

// Kill simulates an abrupt container death (crash, OOM kill): the process
// vanishes and the port closes immediately, with no graceful stop delay.
func (c *Container) Kill() error {
	if c.state != StateRunning {
		return fmt.Errorf("%w: kill in %s", ErrBadState, c.state)
	}
	c.teardown()
	c.state = StateStopped
	return nil
}
