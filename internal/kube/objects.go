// Package kube implements a miniature Kubernetes: an API server with
// versioned objects and watches, the Deployment and ReplicaSet controllers,
// a pluggable scheduler (the paper's Local Scheduler slot), and a kubelet
// per node driving the containerd runtime.
//
// The point of modelling the control plane as actual chained watch/reconcile
// loops — rather than a single sleep — is that the paper's headline result
// (Docker scales up in <1 s, Kubernetes in ~3 s, fig. 11) is *caused* by
// this chain: Deployment -> ReplicaSet -> Pod -> scheduler binding ->
// kubelet sync -> sandbox + container start. Each hop pays API and watch
// latency, and the sum reproduces the orchestrator overhead.
//
// The API server stores objects as immutable snapshots: a write copies the
// caller's object in and replaces the stored pointer. List* results and
// watch Event.Object are those shared snapshots, name-ordered, served from
// maintained indexes without copying — treat them as read-only. Get* returns
// a private copy to modify and pass to Update*.
package kube

import (
	"fmt"
	"maps"

	"transparentedge/internal/spec"
)

// Kind identifies an object type in the API server.
type Kind string

// Object kinds.
const (
	KindDeployment Kind = "Deployment"
	KindReplicaSet Kind = "ReplicaSet"
	KindPod        Kind = "Pod"
	KindService    Kind = "Service"
)

// PodPhase is the lifecycle phase of a pod.
type PodPhase string

// Pod phases.
const (
	PodPending PodPhase = "Pending"
	PodRunning PodPhase = "Running"
)

// PodTemplate describes the pods a workload creates.
type PodTemplate struct {
	Labels     map[string]string
	Containers []spec.ContainerSpec
}

// Deployment is the workload object edge services are defined as.
type Deployment struct {
	Name            string
	Labels          map[string]string
	Replicas        int
	Template        PodTemplate
	SchedulerName   string
	ResourceVersion uint64
}

// ReplicaSet is the intermediate object a Deployment manages.
type ReplicaSet struct {
	Name            string
	Owner           string // owning Deployment
	Labels          map[string]string
	Replicas        int
	Template        PodTemplate
	SchedulerName   string
	ResourceVersion uint64
}

// Pod is one schedulable instance.
type Pod struct {
	Name            string
	Owner           string // owning ReplicaSet
	Labels          map[string]string
	Spec            PodTemplate
	SchedulerName   string
	NodeName        string
	Phase           PodPhase
	HostPort        int // node port the pod's HTTP container is exposed on
	ResourceVersion uint64
}

// Service is the stable virtual endpoint for a set of pods. In this
// single-purpose model every Service is of type NodePort, and (collapsing
// kube-proxy's DNAT on a per-node basis) the selected pod's container
// listens on the NodePort directly.
type Service struct {
	Name            string
	Labels          map[string]string
	Selector        map[string]string
	Port            int
	TargetPort      int
	NodePort        int
	ResourceVersion uint64
}

// EventType is a watch event type.
type EventType int

// Watch event types.
const (
	Added EventType = iota + 1
	Modified
	Deleted
)

func (t EventType) String() string {
	switch t {
	case Added:
		return "ADDED"
	case Modified:
		return "MODIFIED"
	case Deleted:
		return "DELETED"
	}
	return fmt.Sprintf("event(%d)", int(t))
}

// Event is a watch notification. Object is the store's snapshot of the
// object at event time (for Deleted, the last state before deletion); it is
// shared with every other watcher and lister, so it is read-only.
type Event struct {
	Type   EventType
	Kind   Kind
	Name   string
	Object any
}

// MatchLabels reports whether labels carries every selector entry.
func MatchLabels(labels, selector map[string]string) bool {
	for k, v := range selector {
		if !hasLabel(labels, k, v) {
			return false
		}
	}
	return true
}

// hasLabel reports whether labels holds key k with value v (an absent key
// does not match an empty value, as in Kubernetes).
func hasLabel(labels map[string]string, k, v string) bool {
	got, ok := labels[k]
	return ok && got == v
}

func copyTemplate(t PodTemplate) PodTemplate {
	return PodTemplate{
		Labels:     maps.Clone(t.Labels),
		Containers: append([]spec.ContainerSpec(nil), t.Containers...),
	}
}

func (d *Deployment) meta() (string, *uint64) { return d.Name, &d.ResourceVersion }

func (d *Deployment) clone() *Deployment {
	cp := *d
	cp.Labels = maps.Clone(d.Labels)
	cp.Template = copyTemplate(d.Template)
	return &cp
}

func (rs *ReplicaSet) meta() (string, *uint64) { return rs.Name, &rs.ResourceVersion }

func (rs *ReplicaSet) clone() *ReplicaSet {
	cp := *rs
	cp.Labels = maps.Clone(rs.Labels)
	cp.Template = copyTemplate(rs.Template)
	return &cp
}

func (p *Pod) meta() (string, *uint64) { return p.Name, &p.ResourceVersion }

func (p *Pod) clone() *Pod {
	cp := *p
	cp.Labels = maps.Clone(p.Labels)
	cp.Spec = copyTemplate(p.Spec)
	return &cp
}

func (s *Service) meta() (string, *uint64) { return s.Name, &s.ResourceVersion }

func (s *Service) clone() *Service {
	cp := *s
	cp.Labels = maps.Clone(s.Labels)
	cp.Selector = maps.Clone(s.Selector)
	return &cp
}
