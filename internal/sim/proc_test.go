package sim

import (
	"errors"
	"testing"
	"time"
)

func TestProcSleep(t *testing.T) {
	k := New(1)
	var wake Time
	k.Go("sleeper", func(p *Proc) {
		p.Sleep(100 * time.Millisecond)
		wake = p.Now()
	})
	k.Run()
	if wake != 100*time.Millisecond {
		t.Fatalf("woke at %v, want 100ms", wake)
	}
}

func TestProcInterleaving(t *testing.T) {
	k := New(1)
	var order []string
	k.Go("a", func(p *Proc) {
		order = append(order, "a0")
		p.Sleep(20 * time.Millisecond)
		order = append(order, "a1")
	})
	k.Go("b", func(p *Proc) {
		order = append(order, "b0")
		p.Sleep(10 * time.Millisecond)
		order = append(order, "b1")
	})
	k.Run()
	want := []string{"a0", "b0", "b1", "a1"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSleepUntil(t *testing.T) {
	k := New(1)
	var at Time
	k.Go("p", func(p *Proc) {
		p.SleepUntil(50 * time.Millisecond)
		p.SleepUntil(10 * time.Millisecond) // in the past: no-op
		at = p.Now()
	})
	k.Run()
	if at != 50*time.Millisecond {
		t.Fatalf("at = %v, want 50ms", at)
	}
}

func TestPromiseResolveBeforeAwait(t *testing.T) {
	k := New(1)
	pr := NewPromise[int](k)
	pr.Resolve(42)
	var got int
	k.Go("w", func(p *Proc) { got, _ = pr.Await(p) })
	k.Run()
	if got != 42 {
		t.Fatalf("got %d, want 42", got)
	}
}

func TestPromiseAwaitThenResolve(t *testing.T) {
	k := New(1)
	pr := NewPromise[string](k)
	var got string
	var at Time
	k.Go("w", func(p *Proc) {
		got, _ = pr.Await(p)
		at = p.Now()
	})
	k.After(time.Second, func() { pr.Resolve("done") })
	k.Run()
	if got != "done" || at != time.Second {
		t.Fatalf("got %q at %v, want done at 1s", got, at)
	}
}

func TestPromiseFail(t *testing.T) {
	k := New(1)
	pr := NewPromise[int](k)
	errBoom := errors.New("boom")
	var err error
	k.Go("w", func(p *Proc) { _, err = pr.Await(p) })
	k.After(time.Millisecond, func() { pr.Fail(errBoom) })
	k.Run()
	if !errors.Is(err, errBoom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestPromiseMultipleWaiters(t *testing.T) {
	k := New(1)
	pr := NewPromise[int](k)
	n := 0
	for i := 0; i < 5; i++ {
		k.Go("w", func(p *Proc) {
			v, _ := pr.Await(p)
			n += v
		})
	}
	k.After(time.Millisecond, func() { pr.Resolve(1) })
	k.Run()
	if n != 5 {
		t.Fatalf("n = %d, want 5", n)
	}
}

func TestPromiseDoubleResolvePanics(t *testing.T) {
	k := New(1)
	pr := NewPromise[int](k)
	pr.Resolve(1)
	defer func() {
		if recover() == nil {
			t.Error("second Resolve did not panic")
		}
	}()
	pr.Resolve(2)
}

func TestPromiseOnDone(t *testing.T) {
	k := New(1)
	pr := NewPromise[int](k)
	var got []int
	pr.OnDone(func(v int, _ error) { got = append(got, v) })
	k.After(time.Millisecond, func() { pr.Resolve(7) })
	k.Run()
	pr.OnDone(func(v int, _ error) { got = append(got, v+1) }) // after resolution
	k.Run()
	if len(got) != 2 || got[0] != 7 || got[1] != 8 {
		t.Fatalf("got %v, want [7 8]", got)
	}
}

func TestChanSendRecv(t *testing.T) {
	k := New(1)
	c := NewChan[int](k)
	var got []int
	k.Go("rx", func(p *Proc) {
		for {
			v, ok := c.Recv(p)
			if !ok {
				return
			}
			got = append(got, v)
		}
	})
	k.Go("tx", func(p *Proc) {
		for i := 1; i <= 3; i++ {
			c.Send(i)
			p.Sleep(time.Millisecond)
		}
		c.Close()
	})
	k.Run()
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("got %v, want [1 2 3]", got)
	}
}

func TestChanRecvBlocksInVirtualTime(t *testing.T) {
	k := New(1)
	c := NewChan[int](k)
	var at Time
	k.Go("rx", func(p *Proc) {
		c.Recv(p)
		at = p.Now()
	})
	k.After(3*time.Second, func() { c.Send(9) })
	k.Run()
	if at != 3*time.Second {
		t.Fatalf("received at %v, want 3s", at)
	}
}

func TestChanTryRecv(t *testing.T) {
	k := New(1)
	c := NewChan[int](k)
	if _, ok := c.TryRecv(); ok {
		t.Fatal("TryRecv on empty chan returned ok")
	}
	c.Send(5)
	v, ok := c.TryRecv()
	if !ok || v != 5 {
		t.Fatalf("TryRecv = %d,%v want 5,true", v, ok)
	}
}

func TestChanCloseWakesReceivers(t *testing.T) {
	k := New(1)
	c := NewChan[int](k)
	closedSeen := false
	k.Go("rx", func(p *Proc) {
		_, ok := c.Recv(p)
		closedSeen = !ok
	})
	k.After(time.Millisecond, func() { c.Close() })
	k.Run()
	if !closedSeen {
		t.Fatal("receiver not woken by Close")
	}
}

func TestWaitGroup(t *testing.T) {
	k := New(1)
	wg := NewWaitGroup(k)
	wg.Add(3)
	var doneAt Time
	k.Go("waiter", func(p *Proc) {
		wg.Wait(p)
		doneAt = p.Now()
	})
	for i := 1; i <= 3; i++ {
		i := i
		k.Go("worker", func(p *Proc) {
			p.Sleep(time.Duration(i) * time.Second)
			wg.Done()
		})
	}
	k.Run()
	if doneAt != 3*time.Second {
		t.Fatalf("waiter finished at %v, want 3s", doneAt)
	}
}

func TestWaitGroupAlreadyZero(t *testing.T) {
	k := New(1)
	wg := NewWaitGroup(k)
	ran := false
	k.Go("w", func(p *Proc) {
		wg.Wait(p)
		ran = true
	})
	k.Run()
	if !ran {
		t.Fatal("Wait on zero counter blocked")
	}
}

func TestProcDeterminism(t *testing.T) {
	run := func() []string {
		k := New(99)
		var log []string
		c := NewChan[string](k)
		for i := 0; i < 10; i++ {
			name := string(rune('a' + i))
			k.Go(name, func(p *Proc) {
				d := time.Duration(k.Rand().Intn(100)) * time.Millisecond
				p.Sleep(d)
				c.Send(p.Name())
			})
		}
		k.Go("collector", func(p *Proc) {
			for i := 0; i < 10; i++ {
				v, _ := c.Recv(p)
				log = append(log, v)
			}
		})
		k.Run()
		return log
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at %d: %v vs %v", i, a, b)
		}
	}
}

func TestManyProcsStress(t *testing.T) {
	// 10k processes exchanging messages through one channel: exercises
	// the kernel's handoff machinery at scale and stays deterministic.
	k := New(1)
	c := NewChan[int](k)
	const n = 10_000
	done := 0
	for i := 0; i < n; i++ {
		i := i
		k.Go("w", func(p *Proc) {
			p.Sleep(time.Duration(i%97) * time.Microsecond)
			c.Send(i)
		})
	}
	k.Go("collector", func(p *Proc) {
		for j := 0; j < n; j++ {
			c.Recv(p)
			done++
		}
	})
	k.Run()
	if done != n {
		t.Fatalf("collected %d of %d", done, n)
	}
}
