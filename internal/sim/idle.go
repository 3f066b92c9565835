package sim

import "time"

// Idle is a lazy idle timer: its owner records each use with Touch — one
// store, no queue operation — and the timer's single event, held by value,
// re-checks at the earliest instant the owner could have idled out: it
// calls expire when nothing touched the owner for d, and otherwise re-arms
// itself for the deadline the last Touch pushed back. An owner embeds an
// Idle by value, and must not move it once started. The first Start binds
// the re-check once; no later Start, Touch, re-arm or expiry allocates, so
// an owner that recycles itself restarts its Idle for free (with an expire
// it bound once, too). The zero Idle is a stopped timer that still records
// Touch.
type Idle struct {
	ev     Event
	last   Time
	d      time.Duration
	expire func()
}

// Start counts d of idleness from now and arms the timer. expire runs in
// kernel context, at most once per Start, unless Stop comes first. A timer
// may be started again once it is stopped or has expired; starting an armed
// one panics. A restart keeps the event's stamp, so an entry the previous
// arm left in the queue stays stale and cannot fire the new one.
func (i *Idle) Start(k *Kernel, d time.Duration, expire func()) {
	switch {
	case i.ev.fn == nil: // first start: the event is born fired, i.e. not armed
		i.ev = Event{k: k, fn: i.check, fired: true}
	case !i.ev.fired && !i.ev.cancelled:
		panic("sim: Idle started while armed")
	}
	i.last, i.d, i.expire = k.now, d, expire
	k.Schedule(&i.ev, i.last+d)
}

// Touch records a use at now, pushing expiry back to now+d.
func (i *Idle) Touch(now Time) { i.last = now }

// Last returns the instant of the latest Touch (or of Start).
func (i *Idle) Last() Time { return i.last }

// Stop disarms the timer: expire will not run and no event stays pending.
func (i *Idle) Stop() { i.ev.Cancel() }

func (i *Idle) check() {
	k := i.ev.k
	if due := i.last + i.d; due > k.now {
		k.Schedule(&i.ev, due)
		return
	}
	i.expire()
}
