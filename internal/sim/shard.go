package sim

import (
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"
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

	// horizon is the current window's exclusive upper bound (between
	// windows, the last one's); active marks that window workers are
	// executing (Send validates against it).
	horizon Time
	active  bool

	// outbox is indexed by kernel: a window worker appends only to its own
	// kernel's outbox, so workers never share a slice.
	outbox  [][]shardMsg
	msgSeq  []uint64 // per source domain
	pending []shardMsg
	next    []Time    // per kernel: probe's next event time, maxTime if none up to its bound
	busy    []*Kernel // per-window scratch
	busyIdx []int     // kernel index of each busy entry (stats)

	// crew runs the windows with two or more busy kernels; it lives for one
	// run call and is nil outside one.
	crew *crew

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
		next:     make([]Time, shards),
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
// timestamp <= t has run, then advances every kernel's clock to exactly t,
// as Kernel.RunUntil does.
func (g *ShardGroup) RunUntil(t Time) {
	g.run(t)
	for _, k := range g.kernels {
		k.advance(t)
	}
}

// Close closes every kernel of the group (see Kernel.Close).
func (g *ShardGroup) Close() {
	for _, k := range g.kernels {
		k.Close()
	}
}

// run is the window loop; limit < 0 means run to exhaustion. A window is
// three steps: drain the outboxes, probe for the floor and the busy
// kernels, dispatch them.
func (g *ShardGroup) run(limit Time) {
	defer g.dismiss()
	for {
		g.drain()
		if _, ok := g.probe(limit); !ok {
			break
		}
		g.dispatch()
	}
	for _, k := range g.kernels {
		k.releaseIdle()
	}
}

// probe finds the next window: its floor, the exact minimum next-event time
// over all kernels, sets g.horizon and collects the kernels with an event
// before it into g.busy. It reports false when no event is due at or before
// limit (limit < 0: none at all).
//
// The floor must be exact, because window boundaries are half of the parity
// argument. An unbounded peek would be, but it sweeps an idle kernel's wheel
// cursor out to that kernel's next timer, seconds ahead, and every event the
// kernel schedules afterwards lands behind the cursor in the near heap. So
// every kernel is probed up to a bound that starts one lookahead past the
// last horizon and doubles until some kernel has an event at or before it.
// nextSource is exact up to its bound, so that minimum is the floor, and no
// cursor moves more than one idle gap past it. Doubling stops early when no
// kernel holds a live event (there is no floor) and, under a limit, once
// the bound passes it.
func (g *ShardGroup) probe(limit Time) (Time, bool) {
	bound, floor := g.horizon+g.look, maxTime
	for {
		live := false
		for i, k := range g.kernels {
			g.next[i] = maxTime
			if src, _, w := k.nextSource(bound); src != srcNone && w <= bound {
				g.next[i] = w
				floor = min(floor, w)
			}
			live = live || k.live > 0
		}
		if floor <= bound {
			break
		}
		if !live || bound == maxTime || limit >= 0 && bound >= limit {
			return 0, false
		}
		if gap := bound - g.horizon; gap < maxTime-bound {
			bound += gap
		} else {
			bound = maxTime
		}
	}
	if limit >= 0 && floor > limit {
		return 0, false
	}
	horizon := floor + g.look
	if limit >= 0 && horizon > limit+1 {
		horizon = limit + 1
	}
	g.horizon = horizon
	g.windows++
	g.busy, g.busyIdx = g.busy[:0], g.busyIdx[:0]
	for i, k := range g.kernels {
		w := g.next[i]
		if w == maxTime && horizon-1 > bound {
			// Nothing up to the bound, but the window reaches past it.
			if src, _, v := k.nextSource(horizon); src != srcNone {
				w = v
			}
		}
		if w < horizon {
			g.busy = append(g.busy, k)
			g.busyIdx = append(g.busyIdx, i)
			g.busyWins[i]++
		} else {
			g.idleWins[i]++
		}
	}
	return floor, true
}

// dispatch executes the probed window on every busy kernel: inline when
// there is one, with the crew when there are more. Workers touch disjoint
// state: their own kernel plus its outbox slot.
func (g *ShardGroup) dispatch() {
	g.active = true
	if len(g.busy) == 1 {
		g.busy[0].RunUntilBefore(g.horizon)
	} else {
		if g.crew == nil {
			g.crew = newCrew(g)
		}
		g.crew.window()
	}
	g.active = false
	for _, ki := range g.busyIdx {
		// Virtual time the shard spent at the barrier with nothing left to run.
		if now := g.kernels[ki].now; now < g.horizon {
			g.vStall[ki] += g.horizon - now
		}
	}
}

// dismiss stops the crew, if this run started one.
func (g *ShardGroup) dismiss() {
	if g.crew != nil {
		g.crew.stop()
		g.crew = nil
	}
}

// crewSpins is how many times a waiting crew member checks its condition
// before it parks: about 100 µs of atomic loads, longer than one side
// usually waits for the other within a window and for the next window, so
// neither parks while windows keep coming. The Go scheduler puts a thread
// with nothing to run to sleep much sooner; with 4 096 checks, both sides of
// a two-kernel regions-sharded run parked in about half its windows, and
// each park cost a futex wake-up.
const crewSpins = 1 << 16

// crew is the window workers of one run call: one goroutine per kernel but
// the first, started at the first window with two busy kernels and stopped
// before run returns, so nothing outlives the call or keeps its kernels
// reachable.
//
// A window is a round. The coordinator publishes g.busy and g.horizon and
// then a ticket, the round's busy count and next unclaimed index in one
// word, wakes one worker per busy kernel beyond the first and runs the
// first busy kernel itself. Every member, the coordinator included, then
// claims further busy kernels by advancing the ticket until none is left,
// and the round ends when all busy kernels are done. A worker reads the
// round's state only after a claim, and the round cannot end before that
// claim's kernel is done, so no worker reads it while the next round
// rewrites it; a worker that wakes to an exhausted ticket just waits again,
// and the coordinator never waits for it.
//
// Either side waits by spinning briefly, then parking on a channel. Spinning
// pays only while every kernel can hold a processor of its own: with more
// kernels than GOMAXPROCS a spinning member takes the processor a working
// one needs, so such a crew parks at once.
type crew struct {
	g       *ShardGroup
	spins   int
	workers []sleeper
	coord   sleeper

	ticket   atomic.Uint64 // busy count << 32 | next index into g.busy
	done     atomic.Int32  // busy kernels of the current round that finished
	stopping atomic.Bool
	exited   atomic.Int32 // workers that saw stopping and returned
	start    time.Time    // wall stats: when the round was published
}

func newCrew(g *ShardGroup) *crew {
	c := &crew{g: g, workers: make([]sleeper, len(g.kernels)-1)}
	if len(g.kernels) <= runtime.GOMAXPROCS(0) {
		c.spins = crewSpins
	}
	c.coord.wake = make(chan struct{}, 1)
	for i := range c.workers {
		w := &c.workers[i]
		w.wake = make(chan struct{}, 1)
		go c.serve(w)
	}
	return c
}

// serve is a worker's loop: wait for an unclaimed busy kernel, run what it
// can claim, until the crew stops.
func (c *crew) serve(w *sleeper) {
	for {
		w.await(c.spins, c.claimable)
		if c.stopping.Load() {
			if c.exited.Add(1) == int32(len(c.workers)) {
				c.coord.signal()
			}
			return
		}
		c.runClaimed()
	}
}

// claimable reports whether a worker has anything to do: a busy kernel to
// claim, or the crew stopping.
func (c *crew) claimable() bool {
	t := c.ticket.Load()
	return uint32(t) < uint32(t>>32) || c.stopping.Load()
}

// window runs one round over g.busy.
func (c *crew) window() {
	g := c.g
	n := len(g.busy)
	if g.wallStats {
		c.start = time.Now()
	}
	c.done.Store(0)
	c.ticket.Store(uint64(n)<<32 | 1)
	for i := range c.workers[:n-1] {
		c.workers[i].signal()
	}
	c.run(0, n)
	c.runClaimed()
	c.coord.await(c.spins, func() bool { return c.done.Load() == int32(n) })
	if g.wallStats {
		slowest := time.Duration(0)
		for wi := range g.busy {
			slowest = max(slowest, g.wallDone[wi])
		}
		for wi, ki := range g.busyIdx {
			g.wStall[ki] += slowest - g.wallDone[wi]
		}
	}
}

// runClaimed runs busy kernels claimed from the ticket until none is left.
func (c *crew) runClaimed() {
	for {
		t := c.ticket.Load()
		i, n := uint32(t), uint32(t>>32)
		if i >= n {
			return
		}
		if c.ticket.CompareAndSwap(t, t+1) {
			c.run(int(i), int(n))
		}
	}
}

// run executes busy kernel i of a round of n and counts it done.
func (c *crew) run(i, n int) {
	g := c.g
	g.busy[i].RunUntilBefore(g.horizon)
	if g.wallStats {
		g.wallDone[i] = time.Since(c.start)
	}
	if c.done.Add(1) == int32(n) {
		c.coord.signal()
	}
}

// stop ends every worker and waits until all have returned. Workers that
// are running a kernel, as after a panic on the coordinator, finish it
// first.
func (c *crew) stop() {
	c.stopping.Store(true)
	for i := range c.workers {
		c.workers[i].signal()
	}
	c.coord.await(c.spins, func() bool { return c.exited.Load() == int32(len(c.workers)) })
}

// sleeper is the parking half of a spin-then-park wait. A waiter that gives
// up spinning marks itself parked, checks its condition once more and
// blocks on wake; whoever makes the condition true takes the mark back and
// sends the one token. The mark is sequentially consistent, so either the
// waiter sees the condition or its waker sees the mark.
type sleeper struct {
	parked atomic.Bool
	wake   chan struct{}
}

// await returns once ready reports true, checking it spins times before
// parking. A token from a waker that made an earlier condition true can
// arrive late, so a wake-up re-checks.
func (s *sleeper) await(spins int, ready func() bool) {
	for i := 0; i < spins; i++ {
		if ready() {
			return
		}
	}
	for {
		s.parked.Store(true)
		if ready() {
			if !s.parked.CompareAndSwap(true, false) {
				<-s.wake // a waker took the mark: take its token
			}
			return
		}
		<-s.wake
		if ready() {
			return
		}
	}
}

// signal wakes the waiter if it parked; call it after making the waiter's
// condition true.
func (s *sleeper) signal() {
	if s.parked.Load() && s.parked.CompareAndSwap(true, false) {
		s.wake <- struct{}{}
	}
}
