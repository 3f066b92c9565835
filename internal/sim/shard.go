package sim

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// ShardGroup runs one simulated scenario across several kernels using
// conservative-lookahead synchronization (classic CMB-style windowing).
//
// The scenario is divided into a fixed number of *domains* (e.g. one per
// switch region plus one for the cloud backbone); every domain's entire
// state — network, hosts, controller, processes — lives on exactly one
// kernel, and domains are mapped onto kernels round-robin. The domain
// topology is a property of the scenario, never of the shard count, which
// is what makes results bit-identical at every shard count:
//
//   - Within a domain, event order is the kernel's (time, seq) order, and
//     relative seq order between a domain's events is preserved whether or
//     not other domains share its kernel (their events interleave but never
//     reorder ours).
//   - Between domains, the only interaction is Send: a timestamped message
//     that the coordinator delivers at a window barrier, sorted by
//     (destination domain, time, source domain, per-source sequence) — a
//     total order that does not depend on which kernel ran which domain,
//     nor on the wall-clock interleaving of the window's workers.
//   - Window boundaries depend only on the union of pending event times and
//     the lookahead constant, both partition-independent.
//
// Execution alternates windows: the coordinator computes the global floor
// T = min over kernels of the next event time, sets the horizon T+L (L =
// lookahead = the minimum inter-domain link latency), and lets every kernel
// execute its events in [T, T+L) in parallel. A message sent during a
// window carries a delivery time >= horizon (enforced; the sender's clock
// is < horizon and every inter-domain link adds >= L), so no kernel can
// ever receive work in its own past.
type ShardGroup struct {
	kernels  []*Kernel
	domainOf []int // domain -> kernel index
	look     Time

	// horizon is the current window's exclusive upper bound; active marks
	// that window workers are executing (Send validates against it).
	horizon Time
	active  bool

	// outbox is indexed by kernel: a window worker appends only to its own
	// kernel's outbox, so workers never share a slice.
	outbox  [][]shardMsg
	msgSeq  []uint64 // per source domain
	pending []shardMsg
	busy    []*Kernel // per-window scratch
	busyIdx []int     // kernel index of each busy entry (stats)

	// Window-loop introspection (GroupStats), all indexed by kernel. The
	// counters observe work the loop already did; wall-clock stall probes
	// are gated behind wallStats because time.Now() is not free.
	windows   uint64
	busyWins  []uint64
	idleWins  []uint64
	sentMsgs  []uint64
	recvMsgs  []uint64
	vStall    []Time
	wStall    []time.Duration
	wallDone  []time.Duration // per-window scratch: worker completion offsets
	wallStats bool
}

// shardMsg is one cross-domain message: run fn at time at on dst's kernel.
type shardMsg struct {
	at  Time
	dst int
	src int
	seq uint64
	fn  func()
}

// NewShardGroup creates a group of min(shards, domains) kernels hosting the
// given number of domains, with the given conservative lookahead (the
// minimum latency of any inter-domain link; delivering below it panics).
// Kernel i is seeded seed+i. shards == 1 is the serial degenerate case:
// every domain on one kernel, no worker goroutines.
func NewShardGroup(domains, shards int, seed int64, lookahead Time) *ShardGroup {
	if domains < 1 {
		panic("sim: ShardGroup needs at least one domain")
	}
	if shards < 1 {
		shards = 1
	}
	if shards > domains {
		shards = domains
	}
	if lookahead <= 0 {
		panic("sim: ShardGroup lookahead must be positive")
	}
	g := &ShardGroup{
		domainOf: make([]int, domains),
		look:     lookahead,
		msgSeq:   make([]uint64, domains),
		kernels:  make([]*Kernel, shards),
		outbox:   make([][]shardMsg, shards),
		busyWins: make([]uint64, shards),
		idleWins: make([]uint64, shards),
		sentMsgs: make([]uint64, shards),
		recvMsgs: make([]uint64, shards),
		vStall:   make([]Time, shards),
		wStall:   make([]time.Duration, shards),
		wallDone: make([]time.Duration, shards),
	}
	for i := range g.kernels {
		g.kernels[i] = New(seed + int64(i))
	}
	for d := range g.domainOf {
		g.domainOf[d] = d % shards
	}
	return g
}

// Shards returns the number of kernels.
func (g *ShardGroup) Shards() int { return len(g.kernels) }

// Domains returns the number of domains.
func (g *ShardGroup) Domains() int { return len(g.domainOf) }

// Lookahead returns the group's conservative lookahead window width.
func (g *ShardGroup) Lookahead() Time { return g.look }

// Kernel returns the kernel hosting the given domain.
func (g *ShardGroup) Kernel(domain int) *Kernel {
	return g.kernels[g.domainOf[domain]]
}

// Send enqueues fn to run at time at on dst's kernel. It must be called
// from src's kernel (i.e. from an event or process currently executing on
// the kernel hosting src). During a window, at must be >= the window
// horizon — violating that means some inter-domain link is faster than the
// declared lookahead, which would let a shard receive work in its executed
// past; the group panics rather than silently diverge.
func (g *ShardGroup) Send(src, dst int, at Time, fn func()) {
	if g.active && at < g.horizon {
		panic(fmt.Sprintf("sim: ShardGroup.Send at %v violates window horizon %v (link latency below lookahead %v?)",
			at, g.horizon, g.look))
	}
	g.msgSeq[src]++
	ki := g.domainOf[src]
	g.sentMsgs[ki]++
	g.outbox[ki] = append(g.outbox[ki], shardMsg{at: at, dst: dst, src: src, seq: g.msgSeq[src], fn: fn})
}

// drain moves every outbox message onto its destination kernel, in a total
// order independent of partitioning: (dst, at, src, per-src seq).
func (g *ShardGroup) drain() {
	for ki := range g.outbox {
		g.pending = append(g.pending, g.outbox[ki]...)
		g.outbox[ki] = g.outbox[ki][:0]
	}
	if len(g.pending) == 0 {
		return
	}
	sort.Slice(g.pending, func(i, j int) bool {
		a, b := g.pending[i], g.pending[j]
		if a.dst != b.dst {
			return a.dst < b.dst
		}
		if a.at != b.at {
			return a.at < b.at
		}
		if a.src != b.src {
			return a.src < b.src
		}
		return a.seq < b.seq
	})
	for _, m := range g.pending {
		ki := g.domainOf[m.dst]
		g.recvMsgs[ki]++
		g.kernels[ki].At(m.at, m.fn)
	}
	for i := range g.pending {
		g.pending[i].fn = nil
	}
	g.pending = g.pending[:0]
}

// Run executes windows until no kernel has pending events and no messages
// are in flight.
func (g *ShardGroup) Run() { g.run(-1) }

// RunUntil executes windows until every pending event and message with
// timestamp <= t has run, then advances every kernel's clock to exactly t.
func (g *ShardGroup) RunUntil(t Time) {
	g.run(t)
	for _, k := range g.kernels {
		if t > k.now {
			k.now = t
		}
	}
}

// Close closes every kernel of the group (see Kernel.Close).
func (g *ShardGroup) Close() {
	for _, k := range g.kernels {
		k.Close()
	}
}

// run is the window loop; limit < 0 means run to exhaustion.
func (g *ShardGroup) run(limit Time) {
	for {
		g.drain()
		floor, ok := Time(0), false
		for _, k := range g.kernels {
			if w, kok := k.NextWhen(); kok && (!ok || w < floor) {
				floor, ok = w, true
			}
		}
		if !ok || (limit >= 0 && floor > limit) {
			for _, k := range g.kernels {
				k.releaseIdle()
			}
			return
		}
		horizon := floor + g.look
		if limit >= 0 && horizon > limit+1 {
			horizon = limit + 1
		}
		g.horizon = horizon
		g.active = true
		g.window(horizon)
		g.active = false
	}
}

// window executes one lookahead window [*, horizon) on every kernel that
// has work, in parallel when more than one does. Workers touch disjoint
// state: their own kernel plus their own outbox slot.
func (g *ShardGroup) window(horizon Time) {
	g.windows++
	busy := g.busy[:0]
	busyIdx := g.busyIdx[:0]
	for i, k := range g.kernels {
		if src, _, w := k.nextSource(horizon); src != srcNone && w < horizon {
			busy = append(busy, k)
			busyIdx = append(busyIdx, i)
			g.busyWins[i]++
		} else {
			g.idleWins[i]++
		}
	}
	g.busy = busy[:0]
	g.busyIdx = busyIdx[:0]
	if len(busy) == 1 {
		busy[0].RunUntilBefore(horizon)
		g.noteVirtualStall(busyIdx[0], horizon)
		return
	}
	var wg sync.WaitGroup
	wg.Add(len(busy))
	wall := g.wallStats
	var start time.Time
	if wall {
		start = time.Now()
	}
	for wi, k := range busy {
		go func(wi int, k *Kernel) {
			defer wg.Done()
			k.RunUntilBefore(horizon)
			if wall {
				g.wallDone[wi] = time.Since(start)
			}
		}(wi, k)
	}
	wg.Wait()
	for _, ki := range busyIdx {
		g.noteVirtualStall(ki, horizon)
	}
	if wall {
		slowest := time.Duration(0)
		for wi := range busy {
			if g.wallDone[wi] > slowest {
				slowest = g.wallDone[wi]
			}
		}
		for wi, ki := range busyIdx {
			g.wStall[ki] += slowest - g.wallDone[wi]
		}
	}
}

// noteVirtualStall records how far short of the window horizon a busy
// shard's clock stopped: virtual time it spent at the barrier with nothing
// left to run.
func (g *ShardGroup) noteVirtualStall(ki int, horizon Time) {
	if now := g.kernels[ki].now; now < horizon {
		g.vStall[ki] += horizon - now
	}
}
