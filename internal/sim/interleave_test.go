package sim

import (
	"math/rand"
	"testing"
	"time"
)

// procProgram is a seeded random process program on one kernel: procs that
// sleep, pass values over Chans, await Promises, wait on a broadcast and on
// wait groups, and spawn children, with every step folded into one FNV-1a hash
// of (now, proc, step). The random source is drawn from inside the procs, so
// any change in the order two procs run — the thing a new hand-off mechanism
// could get wrong — changes every later draw and the hash with it.
type procProgram struct {
	k     *Kernel
	r     *rand.Rand
	h     uint64
	procs int
	chans []*Chan[int]
	sig   *broadcast
	// send, when set, ships v to a Chan of another domain (sharded runs).
	send func(v int)
}

func newProcProgram(k *Kernel, seed int64, roots int) *procProgram {
	pp := &procProgram{k: k, r: rand.New(rand.NewSource(seed)), h: 14695981039346656037, sig: &broadcast{k: k}}
	for i := 0; i < 4; i++ {
		pp.chans = append(pp.chans, NewChan[int](k))
	}
	pp.spawn("ticker", func(p *Proc, _ int) {
		for i := 0; i < 40; i++ {
			p.Sleep(100 * time.Microsecond)
			pp.sig.fire()
		}
	})
	for i := 0; i < roots; i++ {
		pp.spawnWalker(0)
	}
	return pp
}

// broadcast is an edge-triggered condition with no memory: every wait parks
// its process until the next fire.
type broadcast struct {
	k       *Kernel
	waiters []*Proc
}

func (b *broadcast) wait(p *Proc) {
	b.waiters = append(b.waiters, p)
	p.yield()
}

func (b *broadcast) fire() {
	ws := b.waiters
	b.waiters = nil
	for _, w := range ws {
		b.k.Defer(w.wakeFn)
	}
}

// recv blocks p until c holds an item and takes it; p wakes one zero-delay
// event after the Send. The pinned interleavings were recorded with processes
// receiving this way.
func recv[T any](c *Chan[T], p *Proc) T {
	for c.Len() == 0 {
		c.park(p.wakeFn)
		p.yield()
	}
	return c.pop()
}

// waitGroup counts outstanding work items; wait parks a process until none
// is left, which wakes it one zero-delay event after the last done.
type waitGroup struct {
	k       *Kernel
	n       int
	waiters []*Proc
}

func (wg *waitGroup) done() {
	if wg.n--; wg.n == 0 {
		for _, w := range wg.waiters {
			wg.k.Defer(w.wakeFn)
		}
		wg.waiters = nil
	}
}

func (wg *waitGroup) wait(p *Proc) {
	for wg.n > 0 {
		wg.waiters = append(wg.waiters, p)
		p.yield()
	}
}

func (pp *procProgram) log(proc, step int) {
	for _, v := range [3]uint64{uint64(pp.k.Now()), uint64(proc), uint64(step)} {
		for i := 0; i < 8; i++ {
			pp.h ^= v & 0xff
			pp.h *= 1099511628211
			v >>= 8
		}
	}
}

func (pp *procProgram) spawn(name string, fn func(p *Proc, id int)) {
	id := pp.procs
	pp.procs++
	pp.k.Go(name, func(p *Proc) {
		pp.log(id, -1)
		fn(p, id)
		pp.log(id, -2)
	})
}

func (pp *procProgram) pause() time.Duration {
	return time.Duration(pp.r.Intn(300)) * time.Microsecond // 0 takes the Defer path
}

// spawnWalker starts a proc that takes 3..8 random steps.
func (pp *procProgram) spawnWalker(depth int) {
	steps := 3 + pp.r.Intn(6)
	pp.spawn("walker", func(p *Proc, id int) {
		for s := 0; s < steps; s++ {
			pp.step(p, id, depth)
			pp.log(id, s)
		}
	})
}

func (pp *procProgram) step(p *Proc, id, depth int) {
	k := pp.k
	switch pp.r.Intn(8) {
	case 0:
		p.Sleep(pp.pause())
	case 1:
		pp.chans[pp.r.Intn(len(pp.chans))].Send(id)
	case 2:
		c := pp.chans[pp.r.Intn(len(pp.chans))]
		if pp.r.Intn(4) != 0 { // otherwise it may park for good
			k.AfterFree(pp.pause(), func() { c.Send(-id) })
		}
		pp.log(id, 1000+recv(c, p))
	case 3:
		pr, d := NewPromise[int](k), pp.pause()
		if pp.r.Intn(2) == 0 {
			k.After(d, func() { pr.Resolve(id) })
		} else {
			pp.spawn("resolver", func(q *Proc, _ int) {
				q.Sleep(d)
				pr.Resolve(id)
			})
		}
		pr.Await(p)
	case 4:
		pp.sig.wait(p)
	case 5:
		wg := &waitGroup{k: k, n: 1 + pp.r.Intn(3)}
		for i := 0; i < wg.n; i++ {
			d := pp.pause()
			pp.spawn("worker", func(q *Proc, _ int) {
				q.Sleep(d)
				wg.done()
			})
		}
		wg.wait(p)
	case 6:
		if depth < 2 {
			pp.spawnWalker(depth + 1)
		}
	case 7:
		if pp.send != nil {
			pp.send(id)
		} else {
			p.Sleep(time.Microsecond)
		}
	}
}

// The values below were recorded with the two-channel, goroutine-per-process
// hand-off (commit 4bec336); the process mechanism may change, they may not.
var (
	serialInterleavings = [8]uint64{
		0xf9a291ad04a30bdd, 0xee3fd07342df9194, 0x6d9be97d2369c543, 0x614f9e3b6b5a8a53,
		0x05dae82138afe3c0, 0x42c7c64f6482d6a2, 0xffa4637c1c4b5a37, 0x8193064e125bc26d,
	}
	shardInterleavings = [8]uint64{
		0xd977e2e4f3657354, 0x7618dbc752b0a139, 0x7a8943b06a39f241, 0xb0b199fe30f38834,
		0xb8766a8dbd839964, 0x7016c438b1c496db, 0x346e7e4f8ecf2803, 0x82432bcac216ab90,
	}
)

func TestProcInterleavingPinned(t *testing.T) {
	for i, want := range serialInterleavings {
		k := New(int64(i + 1))
		pp := newProcProgram(k, int64(i+1), 120)
		k.Run()
		if pp.procs < 200 {
			t.Fatalf("seed %d: %d procs, want at least 200", i+1, pp.procs)
		}
		if pp.h != want {
			t.Errorf("seed %d: interleaving hash %#x over %d procs, pinned %#x", i+1, pp.h, pp.procs, want)
		}
	}
}

// TestShardProcInterleavingPinned runs four such programs, one per domain on
// four kernels, exchanging values across domains. A shard's procs are resumed
// from a different window goroutine every window; run under -race this pins
// that doing so is ordered by the window barrier.
func TestShardProcInterleavingPinned(t *testing.T) {
	const domains, look = 4, time.Millisecond
	for i, want := range shardInterleavings {
		seed := int64(i + 1)
		g := NewShardGroup(domains, domains, seed, look)
		pps := make([]*procProgram, domains)
		for d := range pps {
			pps[d] = newProcProgram(g.Kernel(d), seed*100+int64(d), 60)
		}
		for d, pp := range pps {
			d, pp, dst := d, pp, (d+1)%domains
			pp.send = func(v int) {
				at := pp.k.Now() + look + pp.pause()
				g.Send(d, dst, at, func() { pps[dst].chans[v%4].Send(v) })
			}
		}
		g.Run()
		h, procs := uint64(0), 0
		for _, pp := range pps {
			h = h*1099511628211 ^ pp.h
			procs += pp.procs
		}
		if procs < 200 {
			t.Fatalf("seed %d: %d procs, want at least 200", seed, procs)
		}
		if h != want {
			t.Errorf("seed %d: interleaving hash %#x over %d procs, pinned %#x", seed, h, procs, want)
		}
	}
}
