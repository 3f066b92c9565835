package sim

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"
)

// settledGoroutines returns runtime.NumGoroutine() once it has stopped moving:
// a shard window worker reports that it is exiting a moment before its
// goroutine is gone, and nothing else can be waited on for that.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for stable := 0; stable < 20; {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m != n {
			n, stable = m, 0
		} else {
			stable++
		}
	}
	return n
}

// A kernel whose processes all returned holds no goroutine once Run or
// RunUntil is back, without Close: the pool of idle coroutines is stopped on
// the way out.
func TestRunReleasesIdleCoroutines(t *testing.T) {
	base := settledGoroutines()
	for _, run := range []func(k *Kernel){
		func(k *Kernel) { k.Run() },
		func(k *Kernel) { k.RunUntil(time.Second) },
	} {
		k := New(1)
		peak := 0
		for i := 0; i < 50; i++ {
			d := time.Duration(i%7) * time.Millisecond
			k.Go("w", func(p *Proc) {
				p.Sleep(d)
				if n := runtime.NumGoroutine() - base; n > peak {
					peak = n
				}
			})
		}
		run(k)
		if peak == 0 {
			t.Fatal("no coroutine goroutine seen while the processes ran")
		}
		if s := k.Stats(); s.LiveProcs != 0 || s.ProcStarts != 50 || s.CoroutinesCreated != 50 {
			t.Fatalf("LiveProcs/ProcStarts/CoroutinesCreated = %d/%d/%d, want 0/50/50", s.LiveProcs, s.ProcStarts, s.CoroutinesCreated)
		}
		if n := runtime.NumGoroutine(); n != base {
			t.Fatalf("%d goroutines after the run, %d before it", n, base)
		}
	}
}

// A process that finished hands its coroutine to the next one to start.
func TestCoroutinesArePooled(t *testing.T) {
	k := New(1)
	k.Go("chain", func(p *Proc) {
		for i := 0; i < 100; i++ {
			done := NewPromise[int](k)
			k.Go("link", func(q *Proc) {
				q.Sleep(time.Microsecond)
				done.Resolve(i)
			})
			done.Await(p)
		}
	})
	k.Run()
	if s := k.Stats(); s.ProcStarts != 101 || s.CoroutinesCreated != 2 {
		t.Fatalf("ProcStarts/CoroutinesCreated = %d/%d, want 101/2", s.ProcStarts, s.CoroutinesCreated)
	}
}

// Close unwinds every parked process through its own deferred calls, in
// creation order and on the caller's goroutine, and leaves no goroutine
// behind; a process that finished is not touched.
func TestKernelCloseUnwindsParkedProcs(t *testing.T) {
	base := settledGoroutines()
	k := New(1)
	var unwound []string
	park := func(name string, block func(p *Proc)) {
		k.Go(name, func(p *Proc) {
			defer func() { unwound = append(unwound, name) }()
			block(p)
			t.Errorf("%s ran on after its blocking call", name)
		})
	}
	never := NewChan[int](k)
	park("chan", func(p *Proc) { never.Recv(p) })
	park("sleep", func(p *Proc) { p.Sleep(time.Hour) })
	park("promise", func(p *Proc) { NewPromise[int](k).Await(p) })
	park("broadcast", func(p *Proc) { (&broadcast{k: k}).wait(p) })
	k.Go("finishes", func(p *Proc) { p.Sleep(time.Millisecond) })
	k.RunUntil(time.Second)
	if s := k.Stats(); s.LiveProcs != 4 {
		t.Fatalf("LiveProcs = %d before Close, want 4", s.LiveProcs)
	}
	k.Close()
	if got := strings.Join(unwound, ","); got != "chan,sleep,promise,broadcast" {
		t.Fatalf("unwound %q, want the four parked processes in creation order", got)
	}
	if s := k.Stats(); s.LiveProcs != 0 {
		t.Fatalf("LiveProcs = %d after Close, want 0", s.LiveProcs)
	}
	if n := runtime.NumGoroutine(); n != base {
		t.Fatalf("%d goroutines after Close, %d before the kernel", n, base)
	}
	k.Close() // idempotent
}

// ShardGroup.Close reaches the parked processes of every kernel, including
// ones that window workers on other goroutines started and resumed.
func TestShardGroupCloseLeavesNoGoroutine(t *testing.T) {
	base := settledGoroutines()
	g := NewShardGroup(4, 4, 1, time.Millisecond)
	for d := 0; d < 4; d++ {
		k := g.Kernel(d)
		never := NewChan[int](k)
		for i := 0; i < 5; i++ {
			k.Go("w", func(p *Proc) {
				for j := 0; j < 20; j++ {
					p.Sleep(300 * time.Microsecond)
				}
			})
			k.Go("parked", func(p *Proc) {
				p.Sleep(time.Millisecond)
				never.Recv(p)
			})
		}
	}
	g.Run()
	if n := settledGoroutines(); n != base+20 {
		t.Fatalf("%d goroutines after Run, want the 20 parked processes over the baseline %d", n, base)
	}
	g.Close()
	if n := runtime.NumGoroutine(); n != base {
		t.Fatalf("%d goroutines after Close, %d before the group", n, base)
	}
}

type boomError struct{}

func (boomError) Error() string { return "the fuse was lit" }

//go:noinline
func lightFuse() { panic(boomError{}) }

// A panic in a process body reaches the kernel's caller with the process name
// and the process's own stack; the value stays reachable; other kernels are
// unaffected.
func TestProcPanicNamesProcess(t *testing.T) {
	k := New(1)
	k.Go("bystander", func(p *Proc) { p.Sleep(time.Hour) })
	k.Go("boom", func(p *Proc) {
		p.Sleep(time.Millisecond)
		lightFuse()
	})
	var got any
	func() {
		defer func() { got = recover() }()
		k.Run()
	}()
	err, ok := got.(error)
	if !ok {
		t.Fatalf("Run panicked with %T %v, want an error", got, got)
	}
	for _, want := range []string{`"boom"`, "the fuse was lit", "lightFuse"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("panic message lacks %q:\n%s", want, err)
		}
	}
	var pp *ProcPanic
	if !errors.As(err, &pp) || pp.Proc != "boom" || pp.Value != (boomError{}) {
		t.Errorf("errors.As(*ProcPanic) = %+v", pp)
	}
	if !errors.As(err, &boomError{}) {
		t.Error("the body's error is not reachable through Unwrap")
	}
	k.Close()

	k2, ran := New(2), false
	k2.Go("after", func(p *Proc) {
		p.Sleep(time.Millisecond)
		ran = true
	})
	k2.Run()
	if !ran {
		t.Fatal("a second kernel did not run after the first one's process panicked")
	}
}

// Waking a process whose body returned is a kernel bug and must still be
// reported as one, although the coroutine it ran on is long since running
// something else.
func TestWakingDeadProcessPanics(t *testing.T) {
	k := New(1)
	dead := k.Go("short", func(*Proc) {})
	k.Go("long", func(p *Proc) { p.Sleep(time.Second) }) // takes over the coroutine
	k.After(time.Millisecond, dead.wakeFn)
	defer func() {
		if r := recover(); r != "sim: waking dead process short" {
			t.Fatalf("recovered %v", r)
		}
		k.Close()
	}()
	k.Run()
}

// TestAllocsProcStart: in steady state a process that starts, sleeps once and
// returns allocates its Proc, its wake thunk and the closure of its start
// event — no goroutine, no channel, no coroutine. An implementation that
// makes a fresh iter.Pull per process allocates about nine more.
func TestAllocsProcStart(t *testing.T) {
	k := New(1)
	body := func(p *Proc) { p.Sleep(time.Microsecond) }
	round := func() {
		k.Go("w", body)
		for k.Step() { // not Run: that would release the pool every round
		}
	}
	round()
	if got := testing.AllocsPerRun(200, round); got > 3 {
		t.Fatalf("%.1f allocations per process start, want at most 3", got)
	}
	k.Close()
}
