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

// StaticBehaviors is a map-backed BehaviorSource.
type StaticBehaviors map[string]Behavior

// Behavior implements BehaviorSource.
func (s StaticBehaviors) Behavior(imageRef string) Behavior { return s[imageRef] }

// Cluster is an edge cluster the controller can deploy services to.
type Cluster interface {
	// Name returns the cluster's identifier (e.g. "egs-docker").
	Name() string
	// Addr returns the node address instances are exposed on.
	Addr() simnet.Addr
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

// MultiEndpoint is implemented by clusters that can run several instances
// of one service (e.g. a Kubernetes Deployment with replicas > 1). The
// controller's instance picker — the paper's Local Scheduler role at the
// traffic level — chooses among them.
type MultiEndpoint interface {
	// Endpoints returns every ready instance of the service.
	Endpoints(service string) []Instance
}

// ImageDeleter is implemented by clusters that can delete cached images
// (the optional Delete phase of fig. 4 — "unlikely, but if disk space is
// scarce"). Layers shared with other cached images survive, so a later
// re-pull may not need to fetch every layer again.
type ImageDeleter interface {
	// DeleteImages removes the service's images from the local cache.
	DeleteImages(p *sim.Proc, a *spec.Annotated) error
}
