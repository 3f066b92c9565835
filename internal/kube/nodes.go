package kube

import "transparentedge/internal/sim"

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

// nodeSchedulable reports whether a node may receive pods: unknown nodes
// (no heartbeat yet, e.g. right after cluster start) are assumed fine;
// known NotReady nodes are excluded.
func (a *APIServer) nodeSchedulable(name string) bool {
	n, ok := a.nodes.byName[name]
	return !ok || n.Ready
}

// RunNodeLifecycleController starts the node controller: nodes whose
// heartbeat is older than the grace period are marked NotReady and their
// pods evicted (deleted), so the ReplicaSet controller recreates them and
// the scheduler places them on surviving nodes.
func RunNodeLifecycleController(api *APIServer) {
	m := &nodeMonitor{api: api}
	m.Init(api.k, m, api.t.request)
	m.Sleep(0, monitorIdle)
}

// nodeMonitor is the node controller's loop. A sweep lists the nodes, marks
// each stale one NotReady and evicts its pods, one API request each, and the
// next sweep is due a monitor period after this one ends.
type nodeMonitor struct {
	sim.Cont[nodeMonitor]
	api   *APIServer
	now   sim.Time // when the sweep began
	nodes []*Node  // the sweep's nodes still to look at; nodes[0] is being evicted
	pods  []*Pod   // nodes[0]'s pods still to delete
}

func monitorIdle(m *nodeMonitor) sim.Step[nodeMonitor] {
	m.Sleep(m.api.t.monitor, func(m *nodeMonitor) sim.Step[nodeMonitor] {
		m.now = m.Now()
		return func(m *nodeMonitor) sim.Step[nodeMonitor] {
			m.nodes = m.api.Nodes.List(nil)
			return monitorNext(m)
		}
	})
	return nil
}

// monitorNext marks the next stale node NotReady and lists its pods, or ends
// the sweep.
func monitorNext(m *nodeMonitor) sim.Step[nodeMonitor] {
	for ; len(m.nodes) > 0; m.nodes = m.nodes[1:] {
		if n := m.nodes[0]; n.Ready && m.now-n.LastHeartbeat > m.api.t.grace {
			// Mark NotReady (keeping any heartbeat that landed since the
			// list) and evict.
			stale := m.api.nodes.byName[n.Name].clone()
			stale.Ready = false
			m.api.nodes.put(stale, Modified)
			return func(m *nodeMonitor) sim.Step[nodeMonitor] {
				m.pods = m.api.ListPodsByNode(nil, m.nodes[0].Name)
				return monitorEvict(m)
			}
		}
	}
	return monitorIdle(m)
}

func monitorEvict(m *nodeMonitor) sim.Step[nodeMonitor] {
	if len(m.pods) == 0 {
		m.nodes = m.nodes[1:]
		return monitorNext(m)
	}
	return func(m *nodeMonitor) sim.Step[nodeMonitor] {
		m.api.Pods.Delete(nil, m.pods[0].Name)
		m.pods = m.pods[1:]
		return monitorEvict(m)
	}
}

// startHeartbeats runs the kubelet's node-status loop.
func (kl *Kubelet) startHeartbeats() {
	h := &heartbeat{kl: kl}
	h.Init(kl.api.k, h, kl.api.t.request)
	h.Sleep(0, beat)
}

type heartbeat struct {
	sim.Cont[heartbeat]
	kl *Kubelet
}

func beat(h *heartbeat) sim.Step[heartbeat] {
	if h.kl.failed {
		h.Sleep(h.kl.api.t.heartbeat, beat)
		return nil
	}
	return func(h *heartbeat) sim.Step[heartbeat] {
		h.kl.api.UpsertNode(nil, h.kl.nodeName, true)
		h.Sleep(h.kl.api.t.heartbeat, beat)
		return nil
	}
}

// SetFailed simulates a node crash (true): the kubelet stops heartbeating
// and stops acting on pod events, so the node controller eventually marks
// the node NotReady and evicts its pods. Setting false revives the node.
func (kl *Kubelet) SetFailed(failed bool) { kl.failed = failed }
