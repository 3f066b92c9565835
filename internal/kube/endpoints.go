package kube

import "transparentedge/internal/sim"

// EndpointSubset is one ready backend of a Service.
type EndpointSubset struct {
	PodName  string
	NodeName string
	HostPort int
}

// Endpoints is the endpoints object maintained for each Service, mirroring
// the Kubernetes endpoints controller: the list of ready pods matching the
// Service selector.
type Endpoints struct {
	Name            string // same name as the Service
	Subsets         []EndpointSubset
	ResourceVersion uint64
}

func copyEndpoints(e *Endpoints) *Endpoints {
	if e == nil {
		return nil
	}
	cp := *e
	cp.Subsets = append([]EndpointSubset(nil), e.Subsets...)
	return &cp
}

// GetEndpoints returns a copy of the endpoints object for a service name
// (nil if none yet).
func (a *APIServer) GetEndpoints(p *sim.Proc, name string) *Endpoints {
	a.charge(p)
	return copyEndpoints(a.endpoints[name])
}

// setEndpoints stores the endpoints object and publishes a watch event on
// the Service kind (Kubernetes uses a separate kind; reusing the Service
// stream keeps the watcher plumbing small without losing information).
func (a *APIServer) setEndpoints(e *Endpoints) {
	cp := copyEndpoints(e)
	cp.ResourceVersion = a.bump()
	a.endpoints[e.Name] = cp
}

// RunEndpointsController starts the endpoints controller: on every pod or
// service change it recomputes the ready backends of each Service.
func RunEndpointsController(api *APIServer, cfg ControllerConfig) {
	q := newWorkQueue(api.Kernel())
	api.subscribeQueued(KindPod, func(ev Event) {
		// A pod change may affect any service; reconcile services
		// whose selector matches the pod's labels.
		pod, _ := ev.Object.(*Pod)
		if pod == nil {
			return
		}
		for _, svc := range api.servicesSelecting(pod.Labels) {
			q.Add(svc.Name)
		}
	})
	api.subscribeQueued(KindService, func(ev Event) { q.Add(ev.Name) })
	q.run("endpoints-controller:worker", cfg.Workers, func(p *sim.Proc, name string) {
		p.Sleep(cfg.ReconcileDelay)
		reconcileEndpoints(p, api, name)
	})
}

func reconcileEndpoints(p *sim.Proc, api *APIServer, name string) {
	svc, err := api.GetService(p, name)
	if err != nil {
		delete(api.endpoints, name)
		return
	}
	var subsets []EndpointSubset // in pod-name order, as listed
	for _, pod := range api.ListPods(p, svc.Selector) {
		if pod.Phase != PodRunning || pod.NodeName == "" {
			continue
		}
		subsets = append(subsets, EndpointSubset{
			PodName:  pod.Name,
			NodeName: pod.NodeName,
			HostPort: svc.NodePort,
		})
	}
	api.setEndpoints(&Endpoints{Name: name, Subsets: subsets})
}
