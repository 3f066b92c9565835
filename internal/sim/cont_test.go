package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// A script is a random sequence of waits that a Proc and a Cont both run: the
// Proc with Sleep and Chan.Recv, the Cont with its steps.
type scriptOp struct {
	kind   int // opSleep, opCharge, opRearm, opRecv
	d, d2  time.Duration
	cancel bool // opRearm: cancel the first arm before the second, or let the second move it
}

const (
	opSleep = iota
	opCharge
	opRearm
	opRecv
)

// scriptMark is where one op of the script completed, or one unrelated event
// ran: the instant, the sequence number of the running event (Kernel.ran) and
// how many sequence numbers the kernel had drawn (Kernel.seq).
type scriptMark struct {
	who       string
	i         int
	now       Time
	ran, seqs uint64
}

type scriptWorld struct {
	k    *Kernel
	ch   *Chan[int]
	log  []scriptMark
	ops  []scriptOp
	grid func() time.Duration
}

func (w *scriptWorld) mark(who string, i int) {
	w.log = append(w.log, scriptMark{who, i, w.k.now, w.k.ran, w.k.seq})
}

// newScriptWorld builds the script of seed and, on a kernel of its own, the
// unrelated events around it: on a 10 µs grid, so that they share instants
// with the script's wake-ups, some of them send on the script's channel, some
// from a zero-delay event of their own, landing after a wake-up of the
// instant rather than before it.
func newScriptWorld(seed int64) *scriptWorld {
	r := rand.New(rand.NewSource(seed))
	w := &scriptWorld{k: New(1)}
	w.ch = NewChan[int](w.k)
	w.grid = func() time.Duration { return time.Duration(r.Intn(6)) * 10 * time.Microsecond }
	for i := 0; i < 12+r.Intn(20); i++ {
		op := scriptOp{kind: r.Intn(4), d: w.grid(), d2: w.grid(), cancel: r.Intn(2) == 0}
		if op.kind == opRearm && op.d == op.d2 {
			op.d += 10 * time.Microsecond
		}
		w.ops = append(w.ops, op)
	}
	at := Time(0)
	for i := 0; i < 40; i++ {
		at += w.grid()
		send, deferred := r.Intn(3) != 0, r.Intn(2) == 0
		w.k.At(at, func() {
			w.mark("event", i)
			if !send {
				return
			}
			if deferred {
				w.k.Defer(func() { w.mark("deferred", i); w.ch.Send(i) })
				return
			}
			w.ch.Send(i)
		})
	}
	return w
}

// runProc runs the script as a process.
func (w *scriptWorld) runProc(latency time.Duration) {
	w.k.Go("script", func(p *Proc) {
		for i, op := range w.ops {
			switch op.kind {
			case opSleep:
				p.Sleep(op.d)
			case opCharge:
				if latency > 0 {
					p.Sleep(latency)
				}
			case opRearm: // a timer armed and disarmed, then the real wait
				w.k.After(op.d, func() {}).Cancel()
				p.Sleep(op.d2)
			case opRecv:
				recv(w.ch, p)
			}
			w.mark("script", i)
		}
	})
	w.k.Run()
}

// scriptCont is the script as a continuation; pc is the op in progress.
type scriptCont struct {
	Cont[scriptCont]
	w  *scriptWorld
	pc int
}

func (w *scriptWorld) runCont(latency time.Duration) {
	c := &scriptCont{w: w}
	c.Init(w.k, c, latency)
	c.Sleep(0, scriptRun) // where Kernel.Go starts a process
	w.k.Run()
}

// scriptRun runs ops from pc until one waits.
func scriptRun(c *scriptCont) Step[scriptCont] {
	for ; c.pc < len(c.w.ops); c.pc++ {
		switch op := c.w.ops[c.pc]; op.kind {
		case opSleep:
			c.Sleep(op.d, scriptDone)
			return nil
		case opCharge:
			return scriptDone
		case opRearm:
			c.Sleep(op.d, scriptDone)
			if op.cancel {
				c.Cancel()
			}
			c.Sleep(op.d2, scriptDone)
			return nil
		case opRecv:
			if _, ok := c.w.ch.TryRecv(); !ok {
				c.Park(c.w.ch, scriptRecv)
				return nil
			}
		}
		c.w.mark("script", c.pc)
	}
	return nil
}

func scriptDone(c *scriptCont) Step[scriptCont] {
	c.w.mark("script", c.pc)
	c.pc++
	return scriptRun(c)
}

func scriptRecv(c *scriptCont) Step[scriptCont] {
	if _, ok := c.w.ch.TryRecv(); !ok {
		c.Park(c.w.ch, scriptRecv)
		return nil
	}
	return scriptDone(c)
}

// TestContMatchesProc is the continuation's reference model: over random
// scripts of sleeps (0 included), charges, cancelled and moved timers and
// channel receives, amid unrelated events and sends that share their
// instants, every op completes at the same instant, inside the same event
// and after the same sequence numbers were drawn as in a process running the
// script — and so does every unrelated event.
func TestContMatchesProc(t *testing.T) {
	ops, done := 0, 0
	for seed := int64(1); seed <= 300; seed++ {
		for _, latency := range []time.Duration{0, 20 * time.Microsecond} {
			want, got := newScriptWorld(seed), newScriptWorld(seed)
			want.runProc(latency)
			got.runCont(latency)
			if fmt.Sprint(got.log) != fmt.Sprint(want.log) {
				t.Fatalf("seed %d, latency %v, ops %+v:\n cont %v\n proc %v", seed, latency, want.ops, got.log, want.log)
			}
			ops += len(want.ops)
			for _, m := range want.log {
				if m.who == "script" {
					done++
				}
			}
		}
	}
	if done < ops*3/4 { // a receive with no send left to come parks for good
		t.Errorf("%d of %d ops completed: the scripts hardly ran", done, ops)
	}
}

// cycleCont goes through every kind of wait once per cycle.
type cycleCont struct {
	Cont[cycleCont]
	ch *Chan[int]
}

func cycleSleep(c *cycleCont) Step[cycleCont] {
	c.Sleep(time.Millisecond, cycleRearm)
	return nil
}

func cycleRearm(c *cycleCont) Step[cycleCont] {
	c.Sleep(3*time.Millisecond, cycleCharge)
	c.Cancel()
	c.Sleep(time.Millisecond, cycleCharge)
	return nil
}

func cycleCharge(*cycleCont) Step[cycleCont] { return cycleRecv }

func cycleRecv(c *cycleCont) Step[cycleCont] {
	if _, ok := c.ch.TryRecv(); !ok {
		c.Park(c.ch, cycleRecv)
	}
	return nil
}

// TestAllocsContCycle: once warm, a continuation's sleep, cancel and re-arm,
// charge (with a latency and without) and channel wake-up allocate nothing.
func TestAllocsContCycle(t *testing.T) {
	k := New(1)
	ch := NewChan[int](k)
	var conts [2]cycleCont
	for i, latency := range []time.Duration{time.Millisecond, 0} {
		c := &conts[i]
		c.ch = ch
		c.Init(k, c, latency)
	}
	send := func() { ch.Send(1) }
	cycle := func() {
		for i := range conts {
			conts[i].Sleep(0, cycleSleep)
		}
		k.AfterFree(10*time.Millisecond, send)
		k.AfterFree(10*time.Millisecond, send)
		k.Run()
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("a warm cycle allocates %v times, want 0", n)
	}
	if ch.Len() != 0 || k.Pending() != 0 {
		t.Errorf("after the cycles: %d items queued, %d events pending; want 0, 0", ch.Len(), k.Pending())
	}
}

// goCont hands itself to a process that sleeps once; log records where its
// step and its process ran.
type goCont struct {
	Cont[goCont]
	log []scriptMark
}

func (c *goCont) mark(who string) {
	k := c.ev.k
	c.log = append(c.log, scriptMark{who, len(c.log), k.now, k.ran, k.seq})
}

func goStep(c *goCont) Step[goCont] {
	c.mark("step")
	c.Go("go", goBody)
	c.mark("step returned")
	return nil
}

func goBody(c *goCont, p *Proc) {
	c.mark("body")
	p.Sleep(time.Millisecond)
	c.mark("body woke")
}

// TestContGo: the body Go hands the activity to runs inside the step's own
// event, before the step goes on, and its start draws no sequence number, so
// it stands where a process that woke in that event would go on. The start
// costs the Proc and its wake thunk.
func TestContGo(t *testing.T) {
	k := New(1)
	var c goCont
	c.Init(k, &c, 0)
	k.AfterFree(time.Millisecond, func() { c.Sleep(0, goStep) })
	k.Run()
	s, b, r, w := c.log[0], c.log[1], c.log[2], c.log[3]
	if b.now != s.now || b.ran != s.ran || b.seqs != s.seqs || r.ran != s.ran || r.seqs != s.seqs+1 {
		t.Errorf("step %+v, body %+v, step returned %+v: want the body inside the step's event, drawing no sequence number to start", s, b, r)
	}
	if w.now != s.now+time.Millisecond {
		t.Errorf("the body woke at %v, want %v", w.now, s.now+time.Millisecond)
	}
	if st := k.Stats(); st.ProcStarts != 1 || st.ProcSwitches != 1 || st.LiveProcs != 0 {
		t.Errorf("stats %v: want one process started, one wake-up, none live", st)
	}
	cycle := func() { // steps rather than Run, which would stop the idle coroutine
		c.log = c.log[:0]
		c.Sleep(0, goStep)
		for k.Step() {
		}
	}
	if n := testing.AllocsPerRun(100, cycle); n != 2 {
		t.Errorf("a Go cycle allocates %v times, want 2 (the Proc and its wake thunk)", n)
	}
}
