// Package sim provides a deterministic discrete-event simulation (DES)
// kernel with a virtual clock, cancellable events, coroutine-based
// processes, and synchronization primitives (channels, promises, wait
// groups) that block in virtual time.
//
// All experiment latencies in this repository are composed on the sim
// virtual clock, which makes runs deterministic (given a seed) and lets
// multi-minute testbed scenarios execute in milliseconds of wall time.
//
// Concurrency model: the kernel is single-threaded in the sense that at any
// instant exactly one unit of simulation logic runs — either an event
// callback or a process that has been resumed by an event. A process runs on
// a coroutine the kernel switches into and that switches back when the
// process blocks (proc.go), so execution order is fully determined by the
// event queue ordering (time, then insertion sequence).
//
// Event storage: the kernel keeps three internally ordered queues and always
// executes the globally smallest (time, sequence) entry, so the three are
// indistinguishable from one queue:
//
//   - a hierarchical timing wheel (see wheel.go) for arbitrary cancellable
//     events (At/After) — O(1) insert/remove, no interface boxing, with a
//     far-future overflow heap beyond the wheel horizon;
//   - an immediate FIFO for zero-delay events (Defer) — appends are in
//     (time, sequence) order by construction, so no queue ops are needed;
//   - a flat list of pending monotone batch schedules (AtBatch) — a batch
//     reads the caller's pre-sorted schedule in place, so staging one costs
//     O(1) memory however long it is, and each batch's next entry is its
//     minimum, so overlapping schedules need no queue ops; the list holds
//     as many batches as are pending at once (one per region's arrivals).
//
// Fire-and-forget events scheduled with AfterFree additionally recycle
// their Event structs through a free list, keeping the simulation's
// steady-state allocation rate near zero.
package sim

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Time is an instant on the simulation clock, expressed as the duration
// elapsed since the start of the simulation. Using time.Duration as the
// underlying representation keeps arithmetic with durations free of
// conversions.
type Time = time.Duration

// Event is a scheduled callback. It can be cancelled until it has fired.
type Event struct {
	when      Time
	seq       uint64
	fn        func()
	k         *Kernel
	cancelled bool
	fired     bool
	pooled    bool   // scheduled via AfterFree: no handle escaped, recyclable
	stamp     uint32 // bumped on Schedule; queue entries with older stamps are stale
}

// Cancel prevents the event from firing. It reports whether the event was
// still pending (i.e. the cancellation had an effect). Cancelled events are
// removed from the queue lazily but leave the kernel's Pending count
// immediately.
func (e *Event) Cancel() bool {
	if e.cancelled || e.fired {
		return false
	}
	e.cancelled = true
	if e.k != nil {
		e.k.live--
	}
	return true
}

// immEvent is a zero-delay event (Defer). Stored by value: no allocation,
// no cancellation handle. The immediate queue is sorted by construction:
// each append stamps the current clock and the next sequence number, and
// the clock never moves backwards.
type immEvent struct {
	when Time
	seq  uint64
	fn   func()
}

// stagedBatch is one AtBatch call: n events, entry i due at at(i) with
// sequence number seq+i, each calling fn(i). The schedule is read in place
// through at, one entry at a time as the batch runs, so a whole arrival
// schedule costs one batch record and zero per-event storage.
type stagedBatch struct {
	at   func(int) Time
	fn   func(int)
	n    int
	next int    // index of the next entry to fire
	when Time   // at(next), cached: nextSource probes every batch every step
	seq  uint64 // sequence number of entry 0
}

// Kernel is a discrete-event simulation executor. The zero value is not
// usable; construct with New.
type Kernel struct {
	now     Time
	wheel   timerWheel
	seq     uint64
	rng     *rand.Rand
	stepped uint64
	// ran is one past the sequence number of the event being executed (of the
	// last one executed, between events); zero before the first. See Precedes.
	ran   uint64
	procs int // processes started and not yet returned (KernelStats.LiveProcs)
	live  int // scheduled, uncancelled, unfired events across all queues

	imm     []immEvent // zero-delay FIFO (Defer)
	immHead int

	staged     []stagedBatch // pending AtBatch batches, in no particular order
	stagedHigh int           // peak len(staged) (KernelStats.LanesHighWater)

	free []*Event // recycled AfterFree events

	procStarts   uint64 // processes ever started
	procSwitches uint64 // wake-ups of a parked process

	coros        []*coro // every coroutine not yet stopped, in creation order
	idle         []*coro // those of coros whose process returned; the next start takes the last
	corosCreated uint64
}

// New returns a kernel whose clock starts at zero and whose random source is
// seeded with seed, making every run with the same seed identical.
func New(seed int64) *Kernel {
	k := &Kernel{rng: rand.New(rand.NewSource(seed))}
	k.wheel.init()
	return k
}

// Now returns the current simulation time.
func (k *Kernel) Now() Time { return k.now }

// Rand returns the kernel's deterministic random source. It must only be
// used from simulation context (events and processes) to keep runs
// reproducible.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// Steps returns the number of events executed so far.
func (k *Kernel) Steps() uint64 { return k.stepped }

// Pending returns the number of live scheduled events: cancelled events are
// excluded as soon as Cancel succeeds, even though their queue entries are
// drained lazily.
func (k *Kernel) Pending() int { return k.live }

// At schedules fn to run at absolute simulation time t. Scheduling in the
// past panics: the simulation clock never moves backwards.
func (k *Kernel) At(t Time, fn func()) *Event {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, k.now))
	}
	e := &Event{when: t, seq: k.seq, fn: fn, k: k}
	k.seq++
	k.live++
	k.wheel.add(timerEntry{when: t, seq: e.seq, stamp: e.stamp, ev: e})
	return e
}

// After schedules fn to run d from now. Negative d panics.
func (k *Kernel) After(d time.Duration, fn func()) *Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return k.At(k.now+d, fn)
}

// NewEvent returns an unscheduled, re-armable event bound to fn. Arm it with
// Schedule; after it fires (or is cancelled) it can be armed again. Reusing
// one Event for a recurring timer keeps repeated scheduling allocation-free,
// which is what the simnet transfer path does per packet.
func (k *Kernel) NewEvent(fn func()) *Event {
	return &Event{k: k, fn: fn, fired: true}
}

// Schedule arms e at absolute simulation time t with a fresh sequence
// number. If e is already queued it is moved (its old queue entry becomes
// stale and is dropped lazily); if it was cancelled but not yet drained it
// is resurrected; if it already fired (or was never armed) it is queued
// anew. Scheduling in the past panics.
func (k *Kernel) Schedule(e *Event, t Time) {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, k.now))
	}
	if e.k != k {
		panic("sim: Schedule on an event from another kernel")
	}
	if e.pooled {
		// AfterFree events recycle through the free list the moment they
		// fire; re-arming one from user code would corrupt the pool.
		panic("sim: Schedule on a pooled (AfterFree) event")
	}
	e.when = t
	e.seq = k.seq
	k.seq++
	e.stamp++ // any queued entry for the previous arm is now stale
	if e.cancelled || e.fired {
		e.cancelled = false
		e.fired = false
		k.live++
	}
	k.wheel.add(timerEntry{when: t, seq: e.seq, stamp: e.stamp, ev: e})
}

// Precedes reports whether the code now running is ordered before e's latest
// arming: whether the event being executed (or, between events, the last one
// executed) drew its sequence number before e drew its own. An event the
// kernel would have fired at this very instant with e's sequence number has
// therefore not run yet when Precedes is true, and has when it is false. It
// lets a model that folded two events into one (simnet's lone transfer)
// resolve a same-nanosecond tie the way the unfolded pair did; it says nothing
// about events due at other instants.
func (k *Kernel) Precedes(e *Event) bool { return k.ran <= e.seq }

// Defer schedules fn to run at the current simulation time, after every
// event already scheduled for this instant — exactly like After(0, fn) but
// with no cancellation handle and no per-event allocation: the entry lands
// in a FIFO that is ordered by construction. This is the fast path for the
// process wake-ups and promise resolutions that dominate event traffic.
func (k *Kernel) Defer(fn func()) {
	k.imm = append(k.imm, immEvent{when: k.now, seq: k.seq, fn: fn})
	k.seq++
	k.live++
}

// AfterFree schedules fn to run d from now, like After, but returns no
// Event handle: the event cannot be cancelled, and its storage is recycled
// through a free list once it fires. Use for fire-and-forget scheduling on
// hot paths. Negative d panics; zero d takes the Defer fast path.
func (k *Kernel) AfterFree(d time.Duration, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	if d == 0 {
		k.Defer(fn)
		return
	}
	var e *Event
	if n := len(k.free); n > 0 {
		e = k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
		e.cancelled = false
		e.fired = false
	} else {
		e = &Event{k: k, pooled: true}
	}
	e.when = k.now + d
	e.seq = k.seq
	e.fn = fn
	k.seq++
	k.live++
	k.wheel.add(timerEntry{when: e.when, seq: e.seq, stamp: e.stamp, ev: e})
}

// AtBatch schedules fn(i) at at(i) for every i in [0, n). The schedule must
// be non-decreasing with at(0) >= Now() (a monotone arrival schedule, e.g. a
// trace sorted by arrival time); violations panic before anything is
// scheduled. The batch draws n consecutive sequence numbers, so it fires
// exactly as the same schedule issued as n At calls would.
//
// The kernel does not copy the schedule: it calls at again as the batch
// runs, once per entry, so whatever at reads must not change until the
// batch's last entry has fired. In exchange a batch costs O(1) memory
// whatever n is: it joins the kernel's list of pending batches, with no heap
// operations and no per-event closure, and leaves it once its last entry has
// fired. Step scans the list, so it is meant for a handful of concurrent
// schedules (one arrival schedule per region), not for thousands.
func (k *Kernel) AtBatch(n int, at func(i int) Time, fn func(i int)) {
	if n <= 0 {
		return
	}
	first := at(0)
	if first < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", first, k.now))
	}
	last := first
	for i := 1; i < n; i++ {
		t := at(i)
		if t < last {
			panic(fmt.Sprintf("sim: AtBatch times not monotone at %d: %v < %v", i, t, last))
		}
		last = t
	}
	k.staged = append(k.staged, stagedBatch{at: at, fn: fn, n: n, when: first, seq: k.seq})
	k.stagedHigh = max(k.stagedHigh, len(k.staged))
	k.seq += uint64(n)
	k.live += n
}

// recycle returns a pooled event to the free list once it can no longer
// fire. Events whose handles escaped via At/After are never recycled.
func (k *Kernel) recycle(e *Event) {
	if !e.pooled {
		return
	}
	e.fn = nil
	k.free = append(k.free, e)
}

// event queue sources for Step's three-way selection.
const (
	srcNone = iota
	srcWheel
	srcImm
	srcStaged
)

// maxTime is the unbounded sweep limit for wheel peeks with no competing
// earlier candidate.
const maxTime = Time(math.MaxInt64)

// nextSource returns the queue holding the globally smallest (time, seq)
// live event, the staged batch index when that queue is srcStaged, and the
// winner's timestamp — one probe answers both "what runs next" and "when".
// Every candidate goes through the same consider() update so the (when,
// seq) tie-break stays total no matter how many sources exist — adding a
// source cannot silently inherit a stale key from the previous winner.
// The FIFO sources are examined first so their best candidate can bound the
// wheel's sweep: the wheel only needs an answer at or before that time (or
// before bound, when the caller only cares about events up to there), and
// the bound keeps its cursor from running ahead of the clock toward
// far-future timers. The returned timestamp is exact whenever it is <=
// bound; beyond it the wheel may simply report the first entry it happens to
// have collected.
func (k *Kernel) nextSource(bound Time) (src, batch int, when Time) {
	src, batch = srcNone, -1
	var seq uint64
	consider := func(s, b int, w Time, q uint64) {
		if src == srcNone || w < when || (w == when && q < seq) {
			src, batch, when, seq = s, b, w, q
		}
	}
	if k.immHead < len(k.imm) {
		ie := &k.imm[k.immHead]
		consider(srcImm, -1, ie.when, ie.seq)
	}
	for i := range k.staged {
		b := &k.staged[i]
		consider(srcStaged, i, b.when, b.seq+uint64(b.next))
	}
	limit := bound
	if src != srcNone && when < limit {
		limit = when
	}
	if en := k.wheel.peek(limit); en != nil {
		consider(srcWheel, -1, en.when, en.seq)
	}
	return src, batch, when
}

// Step executes the next pending event, advancing the clock to its
// timestamp. It reports whether an event was executed (false when the queue
// is empty).
func (k *Kernel) Step() bool {
	src, batch, _ := k.nextSource(maxTime)
	return k.exec(src, batch)
}

// exec runs the head event of the queue nextSource picked. It reports false
// for srcNone.
func (k *Kernel) exec(src, batch int) bool {
	switch src {
	case srcWheel:
		en := k.wheel.pop()
		e := en.ev
		k.now = en.when
		k.ran = en.seq + 1
		e.fired = true
		k.live--
		k.stepped++
		fn := e.fn
		k.recycle(e)
		fn()
		return true
	case srcImm:
		ie := k.imm[k.immHead]
		k.imm[k.immHead].fn = nil
		k.immHead++
		if k.immHead == len(k.imm) {
			k.imm = k.imm[:0]
			k.immHead = 0
		}
		k.now = ie.when
		k.ran = ie.seq + 1
		k.live--
		k.stepped++
		ie.fn()
		return true
	case srcStaged:
		// Every list update happens before fn runs: fn may call AtBatch,
		// which appends to k.staged. A spent batch is swap-deleted; the order
		// of the list does not matter, nextSource compares every batch.
		b := &k.staged[batch]
		i, fn := b.next, b.fn
		k.now = b.when
		k.ran = b.seq + uint64(i) + 1
		if b.next++; b.next < b.n {
			b.when = b.at(b.next)
		} else {
			last := len(k.staged) - 1
			*b = k.staged[last]
			k.staged[last] = stagedBatch{}
			k.staged = k.staged[:last]
		}
		k.live--
		k.stepped++
		fn(i)
		return true
	}
	return false
}

// Run executes events until the queue is empty.
func (k *Kernel) Run() {
	for k.Step() {
	}
	k.releaseIdle()
}

// NextWhen returns the timestamp of the next live event across all queues,
// without executing anything. ok is false when no live events remain. The
// peek is unbounded: with no earlier immediate or staged event it sweeps the
// wheel cursor out to the next timer however far ahead, so a ShardGroup's
// coordinator does not use it for its window floor (it probes up to a
// bound instead).
func (k *Kernel) NextWhen() (Time, bool) {
	src, _, when := k.nextSource(maxTime)
	return when, src != srcNone
}

// RunUntilBefore executes events with timestamps strictly before t. Unlike
// RunUntil it never advances the clock past the last executed event, so a
// shard can run a lookahead window [now, t) and still schedule at any time
// >= its local clock afterwards.
func (k *Kernel) RunUntilBefore(t Time) {
	for {
		src, batch, when := k.nextSource(t)
		if src == srcNone || when >= t {
			return
		}
		k.exec(src, batch)
	}
}

// RunUntil executes events with timestamps <= t, then advances the clock to
// exactly t. Events scheduled for after t remain pending.
func (k *Kernel) RunUntil(t Time) {
	for {
		src, batch, when := k.nextSource(t)
		if src == srcNone || when > t {
			break
		}
		k.exec(src, batch)
	}
	k.advance(t)
	k.releaseIdle()
}

// advance moves the clock forward to t once every event up to t has run.
func (k *Kernel) advance(t Time) {
	if t > k.now {
		// Everything armed so far for an instant up to t has run.
		k.now = t
		k.ran = k.seq
	}
}
