package sim

import "time"

// Idle is a lazy idle timer: its owner records each use with Touch — one
// store, no queue operation — and the timer's single event, held by value,
// re-checks at the earliest instant the owner could have idled out: it
// calls expire when nothing touched the owner for d, and otherwise re-arms
// itself for the deadline the last Touch pushed back. An owner embeds an
// Idle by value; Start costs the caller's expire closure and one bound
// method, however often the timer re-arms. The zero Idle is a stopped timer
// that still records Touch.
type Idle struct {
	ev     Event
	last   Time
	d      time.Duration
	expire func()
}

// Start counts d of idleness from now and arms the timer. expire runs in
// kernel context, at most once, unless Stop comes first. An Idle is started
// once.
func (i *Idle) Start(k *Kernel, d time.Duration, expire func()) {
	if i.ev.k != nil {
		panic("sim: Idle started twice")
	}
	i.ev = Event{k: k, fn: i.check, fired: true}
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
