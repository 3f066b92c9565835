// Package cluster defines the common interface the SDN controller's
// Dispatcher uses to drive edge clusters of any type (the paper deploys the
// same service definitions to both Docker and Kubernetes), structured
// around the paper's three deployment phases (fig. 4):
//
//	Pull     — fetch the container images from the cloud (unless cached)
//	Create   — create the containers (Docker) or Deployment+Service with
//	           zero replicas (Kubernetes)
//	Scale Up — start the container / raise replicas to one
//
// plus the teardown operations Scale Down and Remove. Readiness (the
// service port accepting connections) is intentionally NOT part of the
// interface: the controller observes it from the network by probing, as in
// the paper.
package cluster

import (
	"errors"
	"time"

	"transparentedge/internal/container"
	"transparentedge/internal/obs"
	"transparentedge/internal/sim"
	"transparentedge/internal/simnet"
	"transparentedge/internal/spec"
)

// Errors shared by cluster implementations.
var (
	ErrUnknownService = errors.New("cluster: unknown service")
	ErrNotCreated     = errors.New("cluster: service not created")
	ErrAlreadyExists  = errors.New("cluster: service already created")
)

// Ops counts the fig. 4 phase operations a cluster backend was asked for,
// each at the entry of its phase (a retried operation counts again).
type Ops struct{ Pull, Create, ScaleUp, ScaleDown uint64 }

// Register registers the reader of o as the cluster's four
// cluster_ops_total{cluster,op} series. Nil registry: nothing is registered.
func (o *Ops) Register(reg *obs.Registry, cluster string) {
	if reg == nil {
		return
	}
	reg.Register(func(add func(obs.Sample)) {
		counter := func(op string, n uint64) {
			add(obs.Sample{Name: `cluster_ops_total{cluster="` + cluster + `",op="` + op + `"}`, Kind: "counter", Value: float64(n)})
		}
		counter("pull", o.Pull)
		counter("create", o.Create)
		counter("scale_up", o.ScaleUp)
		counter("scale_down", o.ScaleDown)
	})
}

// Instance is one reachable service instance endpoint inside a cluster.
type Instance struct {
	Service string      // unique service name (spec.Annotated.UniqueName)
	Cluster string      // cluster name
	Addr    simnet.Addr // node address the instance is exposed on
	Port    int         // host port of the instance
}

// Behavior models the runtime characteristics of a container image that a
// YAML definition cannot express: how long the app takes to open its port
// after the process starts, and how it serves requests.
type Behavior struct {
	// InitDelay is process start -> port open (e.g. ResNet model load).
	InitDelay time.Duration
	// ServiceTime is per-request processing time once running.
	ServiceTime time.Duration
	// RespSize is the response size on the wire.
	RespSize simnet.Bytes
}

// AsyncHandler returns the standard request handler for this behavior: the
// service time elapses between request and response, and one response object
// serves every request — the behavior's answer is constant.
func (b Behavior) AsyncHandler() simnet.HTTPAsyncHandler {
	resp := &simnet.HTTPResponse{Status: 200, Size: b.RespSize, Body: "ok"}
	return func(c *simnet.HTTPServerConn, req *simnet.HTTPRequest) {
		c.RespondAfter(b.ServiceTime, resp)
	}
}

// BehaviorSource resolves image references to behaviors. Implemented by the
// experiment catalog; unknown images get a zero Behavior.
type BehaviorSource interface {
	Behavior(imageRef string) Behavior
}

// ContainerConfig is the container one entry of a service definition runs as:
// its image and port, with the start-up delay and request handler src gives
// the image. The caller names and labels it.
func ContainerConfig(src BehaviorSource, cs spec.ContainerSpec, name string, labels map[string]string) container.Config {
	b := src.Behavior(cs.Image)
	cfg := container.Config{Name: name, Image: cs.Image, AppPort: cs.ContainerPort, InitDelay: b.InitDelay, Labels: labels}
	if cs.ContainerPort > 0 {
		cfg.AsyncHandler = b.AsyncHandler()
	}
	return cfg
}

// StaticBehaviors is a map-backed BehaviorSource.
type StaticBehaviors map[string]Behavior

// Behavior implements BehaviorSource.
func (s StaticBehaviors) Behavior(imageRef string) Behavior { return s[imageRef] }

// Cluster is an edge cluster the controller can deploy services to.
type Cluster interface {
	// Name returns the cluster's identifier (e.g. "egs-docker").
	Name() string
	// HasImages reports whether every image of the service is cached.
	HasImages(a *spec.Annotated) bool
	// Pull fetches all images of the service (Pull phase).
	Pull(p *sim.Proc, a *spec.Annotated) error
	// Exists reports whether the service has been created.
	Exists(service string) bool
	// Running reports whether the service is scaled up (>=1 instance
	// started; the instance may still be initializing).
	Running(service string) bool
	// Create materializes the service with zero instances (Create phase).
	Create(p *sim.Proc, a *spec.Annotated) error
	// ScaleUp brings the service to one running instance (Scale Up phase)
	// and returns its endpoint.
	ScaleUp(p *sim.Proc, service string) (Instance, error)
	// ScaleDown stops the service's instances, keeping it created.
	ScaleDown(p *sim.Proc, service string) error
	// Remove deletes the service entirely (containers and, for
	// Kubernetes, the Deployment and Service objects).
	Remove(p *sim.Proc, service string) error
	// Endpoint returns the service's instance endpoint if running.
	Endpoint(service string) (Instance, bool)
	// Services lists created services (sorted).
	Services() []string
}

// ImageDeleter is implemented by clusters that can delete cached images
// (the optional Delete phase of fig. 4 — "unlikely, but if disk space is
// scarce"). Layers shared with other cached images survive, so a later
// re-pull may not need to fetch every layer again.
type ImageDeleter interface {
	// DeleteImages removes the service's images from the local cache.
	DeleteImages(p *sim.Proc, a *spec.Annotated) error
}
