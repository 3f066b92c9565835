// Package core implements the paper's contribution: an SDN controller that
// gives clients transparent access to edge services and deploys
// containerized services on demand.
//
// Components (paper §IV/§V):
//
//   - ServiceRegistry: services registered by their unique cloud address
//     (domain/IP + port), with automatically annotated definitions;
//   - FlowMemory: memorized redirect flows with their own idle timeouts,
//     allowing low idle timeouts in the switches and driving automatic
//     scale-down of idle service instances;
//   - Dispatcher: the fig. 7 algorithm — on a packet-in it gathers the
//     existing/running instances, asks the Global Scheduler for the FAST
//     (current request) and BEST (future requests) locations, triggers the
//     Pull/Create/Scale-Up phases as needed, probes the service port until
//     open, installs the rewrite flows, and releases the held packet;
//   - Global Scheduler plug-ins selected by name in the controller
//     configuration (the paper loads scheduler implementations
//     dynamically).
package core

import (
	"fmt"
	"sort"

	"transparentedge/internal/cluster"
	"transparentedge/internal/simnet"
	"transparentedge/internal/spec"
)

// ClusterInfo is what the Global Scheduler sees about one candidate edge
// cluster for a given request.
type ClusterInfo struct {
	Cluster cluster.Cluster
	// Kind tags the cluster type ("docker", "kubernetes", ...), set when
	// the cluster is added to the controller.
	Kind string
	// Distance ranks the cluster's proximity to the requesting client
	// (lower is closer), as computed by the controller's DistanceFunc.
	Distance int
	// HasImages, Exists, Running describe the service's deployment state
	// on this cluster (fig. 7's "gather existing and running instances").
	HasImages bool
	Exists    bool
	Running   bool
	// Endpoint is the running instance's address, if any.
	Endpoint *cluster.Instance
	// Load counts the memorized flows currently pointing at this
	// cluster's instances of the service — a proxy for how many clients
	// it is serving (used by the least-loaded scheduler).
	Load int
}

// State is the scheduling input for one request.
type State struct {
	Service  *spec.Annotated
	ClientIP simnet.Addr
	Clusters []ClusterInfo // sorted by ascending Distance
}

// Choice is the Global Scheduler's output (paper §IV-B): FAST is the
// location for the current request; BEST, when non-nil and different, is
// the location to deploy for future requests (on-demand deployment without
// waiting). A nil FAST forwards the request toward the cloud.
type Choice struct {
	Fast *ClusterInfo
	Best *ClusterInfo
}

// GlobalScheduler chooses the edge cluster(s) for a request.
type GlobalScheduler interface {
	// Choose returns the FAST/BEST choice for the request.
	Choose(st State) Choice
}

// schedulerFactories is the dynamic-loading registry (§IV-B: "the concrete
// scheduler implementation can be defined in the controller's configuration
// and will be dynamically loaded").
var schedulerFactories = map[string]func() GlobalScheduler{}

// RegisterScheduler adds a scheduler factory under a configuration name.
// Registering a duplicate name panics (a configuration bug).
func RegisterScheduler(name string, factory func() GlobalScheduler) {
	if _, dup := schedulerFactories[name]; dup {
		panic(fmt.Sprintf("core: duplicate scheduler %q", name))
	}
	schedulerFactories[name] = factory
}

// NewScheduler instantiates a registered scheduler by configuration name.
func NewScheduler(name string) (GlobalScheduler, error) {
	f, ok := schedulerFactories[name]
	if !ok {
		return nil, fmt.Errorf("core: unknown scheduler %q (registered: %v)", name, SchedulerNames())
	}
	return f(), nil
}

// SchedulerNames lists the registered scheduler configuration names.
func SchedulerNames() []string {
	names := make([]string, 0, len(schedulerFactories))
	for n := range schedulerFactories {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func init() {
	RegisterScheduler("proximity", func() GlobalScheduler { return ProximityScheduler{} })
	RegisterScheduler("wait-nearest", func() GlobalScheduler { return WaitNearestScheduler{} })
	RegisterScheduler("no-wait", func() GlobalScheduler { return NoWaitScheduler{} })
	RegisterScheduler("docker-first", func() GlobalScheduler { return DockerFirstScheduler{} })
	RegisterScheduler("least-loaded", func() GlobalScheduler { return LeastLoadedScheduler{} })
}

func nearest(st State, pred func(ClusterInfo) bool) *ClusterInfo {
	for i := range st.Clusters {
		if pred(st.Clusters[i]) {
			return &st.Clusters[i]
		}
	}
	return nil
}

// ProximityScheduler is the default policy: the nearest cluster is optimal.
// If it already runs the service, redirect there. Otherwise, if another
// cluster runs it, serve the current request from that (possibly farther)
// instance while the optimal cluster deploys in the background (on-demand
// without waiting, fig. 3). If nothing runs anywhere, deploy in the optimal
// cluster and keep the request waiting (fig. 5).
type ProximityScheduler struct{}

// Choose implements GlobalScheduler.
func (ProximityScheduler) Choose(st State) Choice {
	if len(st.Clusters) == 0 {
		return Choice{}
	}
	best := &st.Clusters[0]
	if best.Running {
		return Choice{Fast: best}
	}
	if running := nearest(st, func(c ClusterInfo) bool { return c.Running }); running != nil {
		return Choice{Fast: running, Best: best}
	}
	return Choice{Fast: best}
}

// WaitNearestScheduler always deploys to and waits for the nearest cluster
// (pure on-demand deployment *with waiting*; used by the fig. 11/12
// experiments where every first request triggers a deployment).
type WaitNearestScheduler struct{}

// Choose implements GlobalScheduler.
func (WaitNearestScheduler) Choose(st State) Choice {
	if len(st.Clusters) == 0 {
		return Choice{}
	}
	return Choice{Fast: &st.Clusters[0]}
}

// NoWaitScheduler demands the lowest possible response time: the current
// request is never held. It goes to the nearest running instance, or to the
// cloud if none exists, while the nearest cluster deploys in the background
// (on-demand deployment *without waiting*).
type NoWaitScheduler struct{}

// Choose implements GlobalScheduler.
func (NoWaitScheduler) Choose(st State) Choice {
	if len(st.Clusters) == 0 {
		return Choice{}
	}
	best := &st.Clusters[0]
	if best.Running {
		return Choice{Fast: best}
	}
	running := nearest(st, func(c ClusterInfo) bool { return c.Running })
	// Fast nil -> cloud; Best deploys in the background either way.
	return Choice{Fast: running, Best: best}
}

// LeastLoadedScheduler balances clients across running instances: the
// current request goes to the running cluster serving the fewest memorized
// flows (ties broken by proximity). When nothing runs, it behaves like
// ProximityScheduler (deploy nearest and wait). The optimal (nearest)
// cluster is still warmed in the background when a farther one serves.
type LeastLoadedScheduler struct{}

// Choose implements GlobalScheduler.
func (LeastLoadedScheduler) Choose(st State) Choice {
	if len(st.Clusters) == 0 {
		return Choice{}
	}
	best := &st.Clusters[0]
	var lightest *ClusterInfo
	for i := range st.Clusters {
		c := &st.Clusters[i]
		if !c.Running {
			continue
		}
		if lightest == nil || c.Load < lightest.Load ||
			(c.Load == lightest.Load && c.Distance < lightest.Distance) {
			lightest = c
		}
	}
	if lightest == nil {
		return Choice{Fast: best}
	}
	if lightest.Cluster.Name() == best.Cluster.Name() || best.Running {
		return Choice{Fast: lightest}
	}
	return Choice{Fast: lightest, Best: best}
}

// DockerFirstScheduler implements the §VII hybrid: respond to the first
// request from a Docker cluster (fast container start), while deploying the
// same service to a Kubernetes cluster for future requests (automated
// management). Once the Kubernetes instance runs, it is preferred.
type DockerFirstScheduler struct{}

// Choose implements GlobalScheduler.
func (DockerFirstScheduler) Choose(st State) Choice {
	if len(st.Clusters) == 0 {
		return Choice{}
	}
	k8s := nearest(st, func(c ClusterInfo) bool { return c.Kind == "kubernetes" })
	if k8s != nil && k8s.Running {
		return Choice{Fast: k8s}
	}
	docker := nearest(st, func(c ClusterInfo) bool { return c.Kind == "docker" })
	if docker == nil {
		// No Docker cluster: degrade to proximity behavior.
		return ProximityScheduler{}.Choose(st)
	}
	if k8s == nil {
		return Choice{Fast: docker}
	}
	return Choice{Fast: docker, Best: k8s}
}
