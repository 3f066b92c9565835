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

// TestAllocsIdle pins what an owner pays for its idle clock: Start costs the
// expire closure and the bound re-check, and neither Touch nor any number of
// re-arms nor the expiry allocates again.
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
	// The owner itself, and the two of Start.
	if bare > 3 {
		t.Errorf("%.0f allocs per owner with an Idle, want <= 3 (owner + 2)", bare)
	}
}
