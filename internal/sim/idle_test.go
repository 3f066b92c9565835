package sim

import (
	"math/rand"
	"testing"
	"time"
)

// atLoopIdle is the reference of Idle: the loop its three former owners each
// wrote by hand — store lastUsed, re-check at lastUsed+d with a fresh
// Kernel.At closure, re-arm or expire — dead checks of a stopped timer
// included.
type atLoopIdle struct {
	k        *Kernel
	d        time.Duration
	lastUsed Time
	stopped  bool
	expire   func()
}

func (i *atLoopIdle) start() {
	i.lastUsed = i.k.Now()
	i.check()
}

func (i *atLoopIdle) check() {
	i.k.At(i.lastUsed+i.d, func() {
		if i.stopped {
			return
		}
		if i.k.Now()-i.lastUsed >= i.d {
			i.expire()
			return
		}
		i.check()
	})
}

// TestIdleMatchesAtLoop drives an Idle and the hand-rolled loop through the
// same seeded touch schedules, each on its own kernel: both expire at the
// same instant (or both never, when the schedule stops them first), and
// while neither is stopped both fire the same number of events.
func TestIdleMatchesAtLoop(t *testing.T) {
	const d = 50 * time.Millisecond
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// Gaps around d, so schedules re-arm a few times and then run out —
		// some at exactly d, the boundary of the re-check.
		var touches []Time
		at := Time(rng.Intn(int(d)))
		for n := rng.Intn(12); n > 0; n-- {
			touches = append(touches, at)
			if rng.Intn(4) == 0 {
				at += d
			} else {
				at += time.Duration(rng.Int63n(int64(d) * 5 / 4))
			}
		}
		stopAt := Time(-1)
		if rng.Intn(4) == 0 {
			stopAt = Time(rng.Int63n(int64(at + d)))
		}

		k, refK := New(seed), New(seed)
		var idle Idle
		expired, refExpired := Time(-1), Time(-1)
		ref := &atLoopIdle{k: refK, d: d, expire: func() { refExpired = refK.Now() }}
		idle.Start(k, d, func() { expired = k.Now() })
		ref.start()
		for _, at := range touches {
			at := at
			k.At(at, func() { idle.Touch(k.Now()) })
			refK.At(at, func() { ref.lastUsed = refK.Now() })
		}
		if stopAt >= 0 {
			k.At(stopAt, func() {
				idle.Stop()
				// Only the touches still to come may be pending.
				left := 0
				for _, at := range touches {
					if at > stopAt {
						left++
					}
				}
				if k.Pending() > left {
					t.Errorf("seed %d: %d events pending after Stop at %v with %d touches left", seed, k.Pending(), stopAt, left)
				}
			})
			refK.At(stopAt, func() { ref.stopped = true })
		}
		k.Run()
		refK.Run()

		if expired != refExpired {
			t.Errorf("seed %d: expired at %v, the At loop at %v (touches %v, stop %v)", seed, expired, refExpired, touches, stopAt)
		}
		if idle.Last() != ref.lastUsed {
			t.Errorf("seed %d: Last() = %v, the At loop's lastUsed %v", seed, idle.Last(), ref.lastUsed)
		}
		if stopAt < 0 && k.Steps() != refK.Steps() {
			t.Errorf("seed %d: %d events fired, the At loop fired %d", seed, k.Steps(), refK.Steps())
		}
		if k.Pending() != 0 {
			t.Errorf("seed %d: %d events pending after the run", seed, k.Pending())
		}
	}
}

// TestIdleStopLeavesNothingPending pins Stop: the armed re-check leaves the
// pending count at once, never fires, and a second Stop — or one on an Idle
// never started — is harmless.
func TestIdleStopLeavesNothingPending(t *testing.T) {
	k := New(1)
	var idle, never Idle
	idle.Start(k, time.Second, func() { t.Error("a stopped Idle expired") })
	if k.Pending() != 1 {
		t.Fatalf("%d events pending after Start, want 1", k.Pending())
	}
	idle.Stop()
	idle.Stop()
	never.Stop()
	if k.Pending() != 0 {
		t.Fatalf("%d events pending after Stop, want 0", k.Pending())
	}
	k.Run()
	if k.Now() != 0 || k.Steps() != 0 {
		t.Errorf("a stopped Idle moved the clock to %v in %d events", k.Now(), k.Steps())
	}
}

// TestIdleRestart pins the restart contract: an Idle stopped, or expired, can
// be started again — from its own expire callback too — and fires once per
// Start, at that Start's deadline, with the pending count exact throughout.
func TestIdleRestart(t *testing.T) {
	t.Run("stop", func(t *testing.T) {
		k := New(1)
		var idle Idle
		var fired []Time
		expire := func() { fired = append(fired, k.Now()) }
		idle.Start(k, time.Second, expire)
		idle.Stop()
		idle.Start(k, 3*time.Second, expire)
		if k.Pending() != 1 {
			t.Fatalf("%d events pending after stop and restart, want 1", k.Pending())
		}
		k.Run()
		if len(fired) != 1 || fired[0] != 3*time.Second || k.Steps() != 1 {
			t.Errorf("fired at %v in %d events, want once at 3s: the stopped arm fired", fired, k.Steps())
		}
	})
	t.Run("expire", func(t *testing.T) {
		k := New(1)
		var idle Idle
		var fired []Time
		var expire func()
		expire = func() {
			fired = append(fired, k.Now())
			if len(fired) < 3 {
				idle.Start(k, time.Second, expire) // from the callback itself
			}
		}
		idle.Start(k, time.Second, expire)
		k.Run()
		idle.Start(k, 2*time.Second, expire)
		if k.Pending() != 1 {
			t.Fatalf("%d events pending after restarting an expired Idle, want 1", k.Pending())
		}
		k.Run()
		want := []Time{time.Second, 2 * time.Second, 3 * time.Second, 5 * time.Second}
		if len(fired) != len(want) {
			t.Fatalf("fired at %v, want %v", fired, want)
		}
		for i := range want {
			if fired[i] != want[i] {
				t.Fatalf("fired at %v, want %v", fired, want)
			}
		}
		if k.Pending() != 0 {
			t.Errorf("%d events pending after the run", k.Pending())
		}
	})
	t.Run("stale-entry-across-cascade", func(t *testing.T) {
		// Ten seconds out the entry sits on an upper wheel level. Every
		// stop-and-restart leaves the previous arm's entry in the same slot;
		// when the cursor cascades the slot down, only the latest may
		// survive. A restart that reset the event's stamp would bring an
		// older entry back to life.
		k := New(1)
		var idle Idle
		fires := 0
		expire := func() { fires++ }
		for i := 0; i < 4; i++ {
			idle.Start(k, 10*time.Second, expire)
			idle.Stop()
		}
		idle.Start(k, 10*time.Second, expire)
		if k.Pending() != 1 {
			t.Fatalf("%d events pending, want 1", k.Pending())
		}
		k.RunUntil(5 * time.Second)
		if fires != 0 || k.Pending() != 1 {
			t.Fatalf("after 5s: %d fires, %d pending, want 0 and 1", fires, k.Pending())
		}
		k.Run()
		if fires != 1 || k.Now() != 10*time.Second || k.Steps() != 1 {
			t.Errorf("%d fires, last at %v in %d events, want one at 10s", fires, k.Now(), k.Steps())
		}
		if k.Pending() != 0 || k.Stats().WheelCascades == 0 {
			t.Errorf("%d pending, %d cascades: want 0 pending, and the entry cascaded", k.Pending(), k.Stats().WheelCascades)
		}
	})
	t.Run("armed", func(t *testing.T) {
		k := New(1)
		var idle Idle
		idle.Start(k, time.Second, func() {})
		defer func() {
			if recover() == nil {
				t.Error("starting an armed Idle did not panic")
			}
		}()
		idle.Start(k, time.Second, func() {})
	})
}

// TestAllocsIdle pins what an owner pays for its idle clock: the first Start
// binds the re-check, and neither Touch nor any number of re-arms nor the
// expiry nor a restart allocates again.
func TestAllocsIdle(t *testing.T) {
	k := New(1)
	owner := func(rearms int) func() {
		return func() {
			o := new(struct {
				idle    Idle
				expired bool
			})
			o.idle.Start(k, time.Second, func() { o.expired = true })
			for i := 0; i < rearms; i++ {
				k.RunUntil(k.Now() + 700*time.Millisecond)
				o.idle.Touch(k.Now())
			}
			k.Run()
			if !o.expired {
				t.Fatal("the Idle did not expire")
			}
		}
	}
	for i := 0; i < 5; i++ {
		owner(3)() // warm the wheel slots
	}
	bare := testing.AllocsPerRun(100, owner(0))
	rearmed := testing.AllocsPerRun(100, owner(3))
	if rearmed != bare {
		t.Errorf("%.0f allocs with 3 re-arms, %.0f with none: re-arming allocates", rearmed, bare)
	}
	// The owner itself, its expire closure and the bound re-check.
	if bare > 3 {
		t.Errorf("%.0f allocs per owner with an Idle, want <= 3 (owner + 2)", bare)
	}
	// A recycled owner: restarting after a stop or an expiry is free.
	var idle Idle
	expire := func() {}
	idle.Start(k, time.Second, expire)
	k.Run()
	if n := testing.AllocsPerRun(100, func() {
		idle.Start(k, time.Second, expire)
		k.RunUntil(k.Now() + 700*time.Millisecond)
		idle.Stop()
		idle.Start(k, time.Second, expire)
		k.Run()
	}); n != 0 {
		t.Errorf("%.1f allocs per stop-and-restart cycle, want 0", n)
	}
}
