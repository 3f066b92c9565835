package sim

import "time"

// Cont is a continuation: an activity that runs on kernel events instead of a
// process of its own. Its state is a record T that embeds the Cont, and each
// of its steps is a plain function of *T, so a continuation allocates nothing
// as it goes. What runs a step mirrors what resumes a Proc, so a step runs
// where a process doing the same work would, at the same place in the
// kernel's (when, seq) order:
//
//   - Sleep: in the timer event, as after Proc.Sleep;
//   - Charge: after the continuation's latency, as after a Sleep of it, or
//     inline when the latency is 0, as a process pays no zero cost;
//   - Park: one zero-delay event after the Send that wakes it, where a
//     process blocked on the channel woke.
//
// A step returns the step to Charge next, or nil when it armed a wait itself,
// handed the activity to a process (Go), or the activity is over; one wait
// is pending at a time. The timer is one Event held by value and bound once:
// Init allocates the bound resume, and nothing after it allocates but the
// process Go starts. A T must not move once its Cont is initialised.
type Cont[T any] struct {
	ev      Event // fires resume; its fn is also the wake thunk Park queues
	self    *T
	next    Step[T]
	latency time.Duration
	body    func(*T, *Proc) // what Go runs on a process
}

// Step is one step of a continuation over T.
type Step[T any] func(*T) Step[T]

// Inbox is what a continuation can park on: a *Chan of any element type.
type Inbox interface{ park(wake func()) }

// Init binds c to kernel k and to self, the record that embeds it; Charge pays
// latency.
func (c *Cont[T]) Init(k *Kernel, self *T, latency time.Duration) {
	c.self, c.latency = self, latency
	c.ev = Event{k: k, fn: c.resume, fired: true}
}

// Now returns the current simulation time.
func (c *Cont[T]) Now() Time { return c.ev.k.now }

func (c *Cont[T]) resume() { c.Charge(c.next(c.self)) }

// Charge runs s after the latency, or at once when it is 0, and then charges
// what s returns, until a step returns nil.
func (c *Cont[T]) Charge(s Step[T]) {
	for ; s != nil; s = s(c.self) {
		if c.latency > 0 {
			c.Sleep(c.latency, s)
			return
		}
	}
}

// Sleep runs s d from now (d = 0: after everything already scheduled for
// this instant) and charges what it returns. A pending Sleep or Charge is
// re-armed, not doubled.
func (c *Cont[T]) Sleep(d time.Duration, s Step[T]) {
	c.next = s
	c.ev.k.Schedule(&c.ev, c.ev.k.now+d)
}

// Cancel disarms a pending Sleep or Charge; its step does not run.
func (c *Cont[T]) Cancel() { c.ev.Cancel() }

// Park parks c on ch, which the caller found empty: s runs one zero-delay
// event after the Send that wakes it, takes the item itself (TryRecv), and
// what it returns is charged.
func (c *Cont[T]) Park(ch Inbox, s Step[T]) {
	c.next = s
	ch.park(c.ev.fn)
}

// Go hands the activity to a process, for work that blocks on an API taking a
// *Proc: body runs on a process started inside the current event — where a
// process that woke here would go on — until it first blocks. Call it from a
// step that arms no wait; body owns the activity until it returns. The start
// costs the Proc and its wake thunk and nothing else.
func (c *Cont[T]) Go(name string, body func(*T, *Proc)) {
	c.body = body
	c.ev.k.newProc(name, c).start()
}

func (c *Cont[T]) runProc(p *Proc) { c.body(c.self, p) }
