package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
	"time"
)

// Proc is a simulation process: a body running on a coroutine (iter.Pull)
// whose blocking operations (Sleep, promise awaits) suspend it in virtual
// time. Only one process (or event callback) executes at a time: the kernel
// switches into the coroutine and the coroutine switches back, with no run
// queue and no second thread involved, so execution remains deterministic and
// a hand-off costs no scheduler wake-up.
type Proc struct {
	k    *Kernel
	name string
	co   *coro // runs the body; nil before the start event and once the body returned
	dead bool
	body procBody // until the start event hands it to a coroutine
	// wakeFn is the wake thunk, allocated once per process so the start event
	// and the hot wake paths (Sleep, Promise) can schedule it without a fresh
	// closure each.
	wakeFn func()
}

// Now returns the current simulation time.
func (p *Proc) Now() Time { return p.k.Now() }

// Go spawns a new process. The process body starts executing at the current
// simulation time (as a separate event), not synchronously. The start event
// is the process's own wake thunk, so a start costs the Proc and that thunk.
func (k *Kernel) Go(name string, fn func(p *Proc)) *Proc {
	p := k.newProc(name, procFunc(fn))
	k.Defer(p.wakeFn)
	return p
}

func (k *Kernel) newProc(name string, body procBody) *Proc {
	p := &Proc{k: k, name: name, body: body}
	p.wakeFn = p.wake
	return p
}

// procBody is what a process runs: a function (Kernel.Go) or a continuation
// that hands its activity to a process (Cont.Go). A function value and a
// pointer both fit in the interface without an allocation.
type procBody interface{ runProc(p *Proc) }

type procFunc func(p *Proc)

func (f procFunc) runProc(p *Proc) { f(p) }

// coro is one coroutine of a kernel's pool. It runs one process body at a
// time; when the body returns it goes on the kernel's idle list and the next
// process to start takes it, because a fresh iter.Pull costs about nine
// allocations and a process start should cost none beyond the Proc itself.
type coro struct {
	resume func() (struct{}, bool) // iter.Pull's next: runs the body until it parks or returns
	stop   func()                  // iter.Pull's stop: makes the pending park return false
	park   func(struct{}) bool     // the sequence's yield: back to whoever called resume or stop
	p      *Proc                   // the process being run; nil while idle
	body   procBody
}

// procKilled is what a parked process panics with when its coroutine is
// stopped under it (Kernel.Close): the body unwinds through its own deferred
// calls and coro.run swallows the value.
type procKilled struct{}

// ProcPanic is the value a kernel panics with when a process body panics.
// iter.Pull re-raises a coroutine's panic from the resuming call, by which
// time the process's own stack is gone; this carries it along.
type ProcPanic struct {
	Proc  string // name of the process
	Value any    // what the body passed to panic
	Stack []byte // debug.Stack() of the process, taken while it was panicking
}

func (e *ProcPanic) Error() string {
	return fmt.Sprintf("sim: process %q panicked: %v\n\n%s", e.Proc, e.Value, e.Stack)
}

// Unwrap returns the body's panic value when it was an error.
func (e *ProcPanic) Unwrap() error {
	err, _ := e.Value.(error)
	return err
}

// newCoro starts a coroutine that runs whatever process it is handed, parks
// idle, and runs the next one, until it is stopped.
func (k *Kernel) newCoro() *coro {
	c := &coro{}
	c.resume, c.stop = iter.Pull(func(park func(struct{}) bool) {
		c.park = park
		for c.run() {
			k.idle = append(k.idle, c)
			if !park(struct{}{}) {
				return
			}
		}
	})
	k.coros = append(k.coros, c)
	k.corosCreated++
	return c
}

// run executes the body of c.p and reports whether the coroutine may take
// another process: not after the body was killed, and a body that panicked
// takes the coroutine down with it.
func (c *coro) run() (reusable bool) {
	p := c.p
	defer func() {
		p.dead, p.co = true, nil
		c.p, c.body = nil, nil
		p.k.procs--
		if r := recover(); r != nil {
			if _, killed := r.(procKilled); !killed {
				panic(&ProcPanic{Proc: p.name, Value: r, Stack: debug.Stack()})
			}
		}
	}()
	c.body.runProc(p)
	return true
}

// releaseIdle stops the coroutines no process is using. An idle coroutine is
// a parked goroutine, which the collector never frees, so a pool that outlived
// its run would leak every stack it grew once per kernel; Run, RunUntil and
// ShardGroup's run loop call this before they return.
func (k *Kernel) releaseIdle() {
	if len(k.idle) == 0 {
		return
	}
	busy := k.coros[:0]
	for _, c := range k.coros {
		if c.p != nil {
			busy = append(busy, c)
		} else {
			c.stop()
		}
	}
	clear(k.coros[len(busy):])
	k.coros = busy
	clear(k.idle)
	k.idle = k.idle[:0]
}

// Close ends every process that is still parked: each one's pending blocking
// call panics with an internal value, so the body unwinds through its deferred
// calls — here, on the caller's goroutine, one process after another in the
// order their coroutines were created — and its coroutine exits. Without it
// every parked process pins a goroutine, its stack and whatever the kernel
// references for the life of the program. The kernel must not run again
// afterwards (events left in the queue may wake the processes that are gone),
// and Close must not be called from a process.
func (k *Kernel) Close() {
	for _, c := range k.coros {
		c.stop()
	}
	k.coros, k.idle = nil, nil
}

// start runs the process body on a pooled coroutine, as the current event,
// until the process parks or finishes. Called from kernel context.
func (p *Proc) start() {
	k, body := p.k, p.body
	p.body = nil
	k.procs++
	k.procStarts++
	var c *coro
	if n := len(k.idle); n > 0 {
		c, k.idle[n-1] = k.idle[n-1], nil
		k.idle = k.idle[:n-1]
	} else {
		c = k.newCoro()
	}
	c.p, c.body, p.co = p, body, c
	c.resume()
}

// yield parks the process and transfers control back to the kernel. The
// process stays parked until some event calls wake.
func (p *Proc) yield() {
	if !p.co.park(struct{}{}) {
		panic(procKilled{})
	}
}

// wake resumes a parked process from kernel (event) context and returns when
// it parks again or finishes. Its first call is the start event, which starts
// the body and is not a switch.
func (p *Proc) wake() {
	if p.dead { // its coroutine may be running another process by now
		panic("sim: waking dead process " + p.name)
	}
	if p.co == nil {
		p.start()
		return
	}
	p.k.procSwitches++
	p.co.resume()
}

// Sleep suspends the process for d of virtual time.
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative sleep %v", d))
	}
	p.k.AfterFree(d, p.wakeFn)
	p.yield()
}

// Promise is a single-assignment value that processes can await. The zero
// value is unusable; create with NewPromise.
type Promise[T any] struct {
	k        *Kernel
	done     bool
	val      T
	err      error
	waiters  []*Proc
	callback []func(T, error)
}

// NewPromise returns an unresolved promise bound to kernel k.
func NewPromise[T any](k *Kernel) *Promise[T] {
	return &Promise[T]{k: k}
}

// Resolve completes the promise with a value. Resolving twice panics.
func (pr *Promise[T]) Resolve(v T) { pr.complete(v, nil) }

// Fail completes the promise with an error.
func (pr *Promise[T]) Fail(err error) {
	var zero T
	pr.complete(zero, err)
}

func (pr *Promise[T]) complete(v T, err error) {
	if pr.done {
		panic("sim: promise resolved twice")
	}
	pr.done = true
	pr.val = v
	pr.err = err
	waiters := pr.waiters
	pr.waiters = nil
	cbs := pr.callback
	pr.callback = nil
	for _, w := range waiters {
		pr.k.Defer(w.wakeFn)
	}
	for _, cb := range cbs {
		pr.k.Defer(func() { cb(v, err) })
	}
}

// Await blocks the process until the promise resolves and returns its value.
func (pr *Promise[T]) Await(p *Proc) (T, error) {
	for !pr.done {
		pr.waiters = append(pr.waiters, p)
		p.yield()
	}
	return pr.val, pr.err
}

// OnDone registers fn to run (as a fresh event) when the promise resolves;
// if already resolved, fn is scheduled immediately.
func (pr *Promise[T]) OnDone(fn func(T, error)) {
	if pr.done {
		v, err := pr.val, pr.err
		pr.k.Defer(func() { fn(v, err) })
		return
	}
	pr.callback = append(pr.callback, fn)
}

// Chan is an unbounded FIFO message queue on which a continuation parks
// (Cont.Park) and takes items with TryRecv. Sends never block (infinite
// buffer), which is the common need in protocol simulations.
// The buffer and waiter queues are head-indexed rings rather than
// reslice-on-pop ([1:]) windows: popping resets to the slice start once
// drained, so steady-state Send/TryRecv traffic reuses capacity instead of
// allocating a fresh backing array per round trip.
type Chan[T any] struct {
	k       *Kernel
	buf     []T
	head    int
	waiters []func() // wake thunks of parked continuations
	whead   int
}

// NewChan returns an empty queue bound to kernel k.
func NewChan[T any](k *Kernel) *Chan[T] { return &Chan[T]{k: k} }

// Len returns the number of buffered items.
func (c *Chan[T]) Len() int { return len(c.buf) - c.head }

// Send enqueues v and wakes one waiting receiver (if any).
func (c *Chan[T]) Send(v T) {
	c.buf = append(c.buf, v)
	c.wakeOne()
}

func (c *Chan[T]) wakeOne() {
	if c.whead == len(c.waiters) {
		return
	}
	w := c.waiters[c.whead]
	c.waiters[c.whead] = nil
	c.whead++
	if c.whead == len(c.waiters) {
		c.waiters = c.waiters[:0]
		c.whead = 0
	}
	c.k.Defer(w)
}

// park queues wake to run, one zero-delay event later, on the next Send. The
// channel must be empty. Several continuations parked on one channel (a work
// queue's workers) seldom all wake at once, so the queue would rarely drain
// back to its start: a full queue slides its live waiters down before it
// grows.
func (c *Chan[T]) park(wake func()) {
	if c.Len() > 0 {
		panic("sim: parking on a non-empty Chan")
	}
	if c.whead > 0 && len(c.waiters) == cap(c.waiters) {
		n := copy(c.waiters, c.waiters[c.whead:])
		clear(c.waiters[n:])
		c.waiters, c.whead = c.waiters[:n], 0
	}
	c.waiters = append(c.waiters, wake)
}

func (c *Chan[T]) pop() T {
	v := c.buf[c.head]
	var zero T
	c.buf[c.head] = zero
	c.head++
	if c.head == len(c.buf) {
		c.buf = c.buf[:0]
		c.head = 0
	}
	return v
}

// TryRecv returns an item without blocking; ok is false if none buffered.
func (c *Chan[T]) TryRecv() (T, bool) {
	if c.Len() == 0 {
		var zero T
		return zero, false
	}
	return c.pop(), true
}
