// Package docker models a Docker Engine on a single node as the paper's
// lightweight edge "cluster" type: containers are created and started
// directly via the containerd runtime with only a small per-API-call engine
// overhead, which is why Docker answers a scale-up in well under a second
// while Kubernetes — with its chain of control loops — needs about three
// (paper fig. 11).
//
// The engine consumes the same annotated service definitions as the
// Kubernetes cluster; it parses the subset it supports (containers, ports,
// env, volume mounts) and attaches the edge.service label to every
// container so edge services can be addressed and queried distinctly (§V).
package docker

import (
	"fmt"
	"maps"
	"slices"
	"time"

	"transparentedge/internal/cluster"
	"transparentedge/internal/container"
	"transparentedge/internal/faults"
	"transparentedge/internal/obs"
	"transparentedge/internal/sim"
	"transparentedge/internal/spec"
)

// The engine's calibration: a local dockerd on the paper's EGS.
const (
	// apiLatency is the per-engine-API-call overhead (HTTP API, dockerd
	// bookkeeping).
	apiLatency = 25 * time.Millisecond
	// portRangeStart is the first host port used for published ports.
	portRangeStart = 32000
)

// Engine is a Docker-like engine managing one node's containers.
type Engine struct {
	name      string
	rt        *container.Runtime
	behaviors cluster.BehaviorSource
	services  map[string]*service
	nextPort  int
	// faults is the engine's fault injector; nil (the default) injects
	// nothing at zero cost.
	faults *faults.Injector
	// ops counts the phase operations asked for.
	ops cluster.Ops
}

// SetFaults attaches a fault injector (nil disables injection). Pull and
// ScaleUp consult it at entry; CrashAfterStart kills a freshly started
// service before its port ever opens.
func (e *Engine) SetFaults(in *faults.Injector) { e.faults = in }

// SetObs registers the engine's cluster_ops_total series (nil registers nothing).
func (e *Engine) SetObs(reg *obs.Registry) { e.ops.Register(reg, e.name) }

type service struct {
	annotated  *spec.Annotated
	containers []*container.Container
	running    bool
	hostPort   int // published port of the HTTP container
}

// New creates an engine on top of a container runtime.
func New(name string, rt *container.Runtime, behaviors cluster.BehaviorSource) *Engine {
	return &Engine{
		name:      name,
		rt:        rt,
		behaviors: behaviors,
		services:  make(map[string]*service),
		nextPort:  portRangeStart,
	}
}

// Name implements cluster.Cluster.
func (e *Engine) Name() string { return e.name }

// HasImages implements cluster.Cluster.
func (e *Engine) HasImages(a *spec.Annotated) bool {
	for _, c := range a.Containers {
		if !e.rt.HasImage(c.Image) {
			return false
		}
	}
	return true
}

// Pull implements cluster.Cluster: images are pulled sequentially, as
// `docker pull` does for distinct images.
func (e *Engine) Pull(p *sim.Proc, a *spec.Annotated) error {
	e.ops.Pull++
	if err := e.faults.PullError(); err != nil {
		return err
	}
	for _, c := range a.Containers {
		p.Sleep(apiLatency)
		if err := e.rt.PullImage(p, c.Image); err != nil {
			return fmt.Errorf("docker: pull %s: %w", c.Image, err)
		}
	}
	return nil
}

// Exists implements cluster.Cluster.
func (e *Engine) Exists(name string) bool {
	_, ok := e.services[name]
	return ok
}

// Running implements cluster.Cluster.
func (e *Engine) Running(name string) bool {
	s, ok := e.services[name]
	return ok && s.running
}

// Create implements cluster.Cluster: one container per entry in the service
// definition, all labelled with edge.service=<name>.
func (e *Engine) Create(p *sim.Proc, a *spec.Annotated) error {
	if _, dup := e.services[a.UniqueName]; dup {
		return fmt.Errorf("%w: %s", cluster.ErrAlreadyExists, a.UniqueName)
	}
	e.ops.Create++
	s := &service{annotated: a}
	for _, cs := range a.Containers {
		p.Sleep(apiLatency)
		cfg := cluster.ContainerConfig(e.behaviors, cs, a.UniqueName+"."+cs.Name, map[string]string{
			spec.EdgeServiceLabel:        a.UniqueName,
			"com.docker.compose.service": cs.Name,
		})
		p.Sleep(e.rt.Delays().Create)
		ctr, err := e.rt.Create(cfg)
		if err != nil {
			return fmt.Errorf("docker: create %s: %w", cfg.Name, err)
		}
		s.containers = append(s.containers, ctr)
	}
	e.services[a.UniqueName] = s
	return nil
}

// ScaleUp implements cluster.Cluster: start every container of the service
// (in definition order) and publish the port of the one the service targets,
// which Kubernetes gives the NodePort.
func (e *Engine) ScaleUp(p *sim.Proc, name string) (cluster.Instance, error) {
	s, ok := e.services[name]
	if !ok {
		return cluster.Instance{}, fmt.Errorf("%w: %s", cluster.ErrNotCreated, name)
	}
	if s.running {
		return e.instance(name, s), nil
	}
	e.ops.ScaleUp++
	if err := e.faults.ScaleUpError(); err != nil {
		return cluster.Instance{}, err
	}
	for _, ctr := range s.containers {
		p.Sleep(apiLatency)
		hostPort := 0
		if port := ctr.Config().AppPort; port > 0 && port == s.annotated.TargetPort {
			if s.hostPort == 0 {
				s.hostPort = e.nextPort
				e.nextPort++
			}
			hostPort = s.hostPort
		}
		p.Sleep(e.rt.Delays().Start)
		if err := ctr.Start(hostPort); err != nil {
			return cluster.Instance{}, fmt.Errorf("docker: start %s: %w", ctr.Name(), err)
		}
	}
	s.running = true
	if e.faults.CrashAfterStart() {
		// The processes die right after start, before any init completed:
		// the published port never opens and the engine marks the service
		// not running (as dockerd does when a container exits). ScaleUp
		// still returns the instance — the caller's readiness probing is
		// what discovers the crash, exactly as on a real engine.
		for _, ctr := range s.containers {
			if ctr.State() == container.StateRunning {
				_ = ctr.Kill()
			}
		}
		s.running = false
	}
	return e.instance(name, s), nil
}

// ScaleDown implements cluster.Cluster.
func (e *Engine) ScaleDown(p *sim.Proc, name string) error {
	s, ok := e.services[name]
	if !ok {
		return fmt.Errorf("%w: %s", cluster.ErrNotCreated, name)
	}
	if !s.running {
		return nil
	}
	e.ops.ScaleDown++
	for _, ctr := range s.containers {
		p.Sleep(apiLatency)
		if ctr.State() == container.StateRunning {
			p.Sleep(e.rt.Delays().Stop)
			if err := ctr.Stop(); err != nil {
				return fmt.Errorf("docker: stop %s: %w", ctr.Name(), err)
			}
		}
	}
	s.running = false
	return nil
}

// Remove implements cluster.Cluster.
func (e *Engine) Remove(p *sim.Proc, name string) error {
	s, ok := e.services[name]
	if !ok {
		return fmt.Errorf("%w: %s", cluster.ErrUnknownService, name)
	}
	for _, ctr := range s.containers {
		p.Sleep(apiLatency)
		if ctr.State() == container.StateRunning {
			p.Sleep(e.rt.Delays().Stop)
		}
		p.Sleep(e.rt.Delays().Remove)
		if err := ctr.Remove(); err != nil {
			return fmt.Errorf("docker: remove %s: %w", ctr.Name(), err)
		}
	}
	delete(e.services, name)
	return nil
}

// Endpoint implements cluster.Cluster.
func (e *Engine) Endpoint(name string) (cluster.Instance, bool) {
	s, ok := e.services[name]
	if !ok || !s.running || s.hostPort == 0 {
		return cluster.Instance{}, false
	}
	return e.instance(name, s), true
}

// Services implements cluster.Cluster.
func (e *Engine) Services() []string {
	return slices.Sorted(maps.Keys(e.services))
}

func (e *Engine) instance(name string, s *service) cluster.Instance {
	return cluster.Instance{
		Service: name,
		Cluster: e.name,
		Addr:    e.rt.Host().IP(),
		Port:    s.hostPort,
	}
}

// DeleteImages implements cluster.ImageDeleter: remove the service's images
// from the node's content store (shared layers survive while referenced).
func (e *Engine) DeleteImages(p *sim.Proc, a *spec.Annotated) error {
	for _, cs := range a.Containers {
		p.Sleep(apiLatency)
		e.rt.Images().RemoveImage(cs.Image)
	}
	return nil
}
