package kube

import (
	"time"

	"transparentedge/internal/sim"
)

// KindNode is the node object kind.
const KindNode Kind = "Node"

// Node is a cluster member's API object, kept alive by kubelet heartbeats.
type Node struct {
	Name            string
	Ready           bool
	LastHeartbeat   sim.Time
	ResourceVersion uint64
}

func (n *Node) meta() (string, *uint64) { return n.Name, &n.ResourceVersion }

func (n *Node) clone() *Node {
	cp := *n
	return &cp
}

// UpsertNode records a node heartbeat (creating the object on first use).
func (a *APIServer) UpsertNode(p *sim.Proc, name string, ready bool) {
	a.charge(p)
	a.nodes.put(&Node{Name: name, Ready: ready, LastHeartbeat: a.k.Now()}, Modified)
}

// GetNode returns a private copy of the node object (nil if never
// heartbeated).
func (a *APIServer) GetNode(p *sim.Proc, name string) *Node {
	n, _ := a.nodes.get(p, name)
	return n
}

// ListNodes returns all node objects, sorted by name, as read-only snapshots
// (GetNode for a mutable copy).
func (a *APIServer) ListNodes(p *sim.Proc) []*Node { return a.nodes.list(p) }

// nodeSchedulable reports whether a node may receive pods: unknown nodes
// (no heartbeat yet, e.g. right after cluster start) are assumed fine;
// known NotReady nodes are excluded.
func (a *APIServer) nodeSchedulable(name string) bool {
	n, ok := a.nodes.byName[name]
	return !ok || n.Ready
}

// NodeLifecycleConfig models the node controller's timing (Kubernetes
// defaults: 10 s heartbeats, 40 s grace, 5 s monitor period).
type NodeLifecycleConfig struct {
	HeartbeatPeriod time.Duration
	GracePeriod     time.Duration
	MonitorPeriod   time.Duration
}

// DefaultNodeLifecycleConfig returns the Kubernetes-like defaults.
func DefaultNodeLifecycleConfig() NodeLifecycleConfig {
	return NodeLifecycleConfig{
		HeartbeatPeriod: 10 * time.Second,
		GracePeriod:     40 * time.Second,
		MonitorPeriod:   5 * time.Second,
	}
}

// RunNodeLifecycleController starts the node controller: nodes whose
// heartbeat is older than the grace period are marked NotReady and their
// pods evicted (deleted), so the ReplicaSet controller recreates them and
// the scheduler places them on surviving nodes.
func RunNodeLifecycleController(api *APIServer, cfg NodeLifecycleConfig) {
	if cfg.MonitorPeriod <= 0 {
		cfg.MonitorPeriod = 5 * time.Second
	}
	if cfg.GracePeriod <= 0 {
		cfg.GracePeriod = 40 * time.Second
	}
	api.Kernel().Go("node-lifecycle-controller", func(p *sim.Proc) {
		for {
			p.Sleep(cfg.MonitorPeriod)
			now := api.Kernel().Now()
			for _, n := range api.ListNodes(p) {
				if !n.Ready || now-n.LastHeartbeat <= cfg.GracePeriod {
					continue
				}
				// Mark NotReady (keeping any heartbeat that landed since the
				// list) and evict.
				stale := api.nodes.byName[n.Name].clone()
				stale.Ready = false
				api.nodes.put(stale, Modified)
				for _, pod := range api.ListPodsByNode(p, n.Name) {
					api.DeletePod(p, pod.Name)
				}
			}
		}
	})
}

// startHeartbeats runs the kubelet's node-status loop.
func (kl *Kubelet) startHeartbeats(period time.Duration) {
	if period <= 0 {
		return
	}
	kl.api.Kernel().Go("kubelet:"+kl.nodeName+":heartbeat", func(p *sim.Proc) {
		for {
			if !kl.failed {
				kl.api.UpsertNode(p, kl.nodeName, true)
			}
			p.Sleep(period)
		}
	})
}

// SetFailed simulates a node crash (true): the kubelet stops heartbeating
// and stops acting on pod events, so the node controller eventually marks
// the node NotReady and evicts its pods. Setting false revives the node.
func (kl *Kubelet) SetFailed(failed bool) { kl.failed = failed }

// Failed reports whether the node is currently failed.
func (kl *Kubelet) Failed() bool { return kl.failed }
