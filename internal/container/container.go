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
)

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
}

// The node-level lifecycle costs of containerd on the EGS, server-class x86.
const (
	// createDelay covers snapshot preparation and container metadata
	// writes.
	createDelay = 45 * time.Millisecond
	// startDelay covers namespace/cgroup/rootfs setup and process exec —
	// the dominant cold-start cost per Mohan et al.
	startDelay = 380 * time.Millisecond
	// stopDelay and removeDelay cover SIGTERM handling and snapshot GC.
	stopDelay   = 60 * time.Millisecond
	removeDelay = 40 * time.Millisecond
)

// Delays are a runtime's lifecycle costs. The operations take effect at once:
// their caller pays the delay first, as a kube store operation pays its
// request latency before it runs. Programs run the calibration; the
// package's tests sweep it.
type Delays struct {
	Create, Start, Stop, Remove time.Duration
}

var calibrated = Delays{Create: createDelay, Start: startDelay, Stop: stopDelay, Remove: removeDelay}

// Runtime is the per-node container runtime.
type Runtime struct {
	host       *simnet.Host
	images     *registry.Client
	t          Delays
	containers map[string]*Container
}

// NewRuntime creates a runtime on host using images for pulls.
func NewRuntime(host *simnet.Host, images *registry.Client) *Runtime {
	return &Runtime{
		host:       host,
		images:     images,
		t:          calibrated,
		containers: make(map[string]*Container),
	}
}

// Host returns the node the runtime runs on.
func (r *Runtime) Host() *simnet.Host { return r.host }

// Delays returns the costs a caller pays before each container operation.
func (r *Runtime) Delays() Delays { return r.t }

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

// Ready reports whether the app's port is open and serving.
func (c *Container) Ready() bool { return c.ready }

// ReadyAt returns when the container last became ready.
func (c *Container) ReadyAt() sim.Time { return c.readyAt }

// Create makes a new container from cfg. The image must be present.
func (r *Runtime) Create(cfg Config) (*Container, error) {
	if cfg.Name == "" {
		return nil, errors.New("container: empty name")
	}
	if _, dup := r.containers[cfg.Name]; dup {
		return nil, fmt.Errorf("%w: %q", ErrDuplicateName, cfg.Name)
	}
	if !r.images.HasImage(cfg.Image) {
		return nil, fmt.Errorf("%w: %q", ErrImageNotPresent, cfg.Image)
	}
	c := &Container{rt: r, cfg: cfg, state: StateCreated}
	r.containers[cfg.Name] = c
	return c, nil
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
// AppPort on (ignored when AppPort is 0; 0 publishes no port). The process
// runs from now; app readiness follows after InitDelay, at which point the
// port opens. Callers that need readiness must probe, as the SDN controller
// does.
func (c *Container) Start(hostPort int) error {
	if c.state != StateCreated && c.state != StateStopped {
		return fmt.Errorf("%w: start in %s", ErrBadState, c.state)
	}
	c.state = StateRunning
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
		if c.hostPort > 0 && c.cfg.AsyncHandler != nil {
			c.listener = c.rt.host.ServeHTTPAsync(c.hostPort, c.cfg.AsyncHandler)
		}
	})
	return nil
}

// Stop terminates the app process and closes its port.
func (c *Container) Stop() error {
	if c.state != StateRunning {
		return fmt.Errorf("%w: stop in %s", ErrBadState, c.state)
	}
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

// Remove deletes the container, stopping it first if it runs: removing a
// running container costs the Stop delay as well.
func (c *Container) Remove() error {
	if c.state == StateRemoved {
		return fmt.Errorf("%w: remove in %s", ErrBadState, c.state)
	}
	c.teardown()
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
