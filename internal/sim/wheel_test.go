package sim

import (
	"math/rand"
	"testing"
	"time"
)

// wheelChurn drives the wheel the way idle timeouts do (flow rules and
// FlowMemory entries are pushed out on every hit): a fixed set of timers,
// four of them re-armed to about a second ahead every virtual millisecond.
// Each re-arm leaves a stale entry behind in the level-2 slot (67 ms wide)
// one second ahead, so one slot at a time fills with hundreds of entries
// that the sweep empties a second later.
type wheelChurn struct {
	k    *Kernel
	rng  *rand.Rand
	evs  []*Event
	peak int // most entries queued at once, stale ones included
}

func newWheelChurn(timers int) *wheelChurn {
	c := &wheelChurn{k: New(1), rng: rand.New(rand.NewSource(1))}
	for range timers {
		e := c.k.NewEvent(func() {})
		c.evs = append(c.evs, e)
		c.k.Schedule(e, c.ahead())
	}
	return c
}

func (c *wheelChurn) ahead() Time {
	return c.k.now + time.Second + Time(c.rng.Intn(1000))*time.Microsecond
}

// step re-arms four random timers and advances the clock by a millisecond.
func (c *wheelChurn) step() {
	for range 4 {
		c.k.Schedule(c.evs[c.rng.Intn(len(c.evs))], c.ahead())
	}
	c.peak = max(c.peak, c.k.wheel.entries())
	c.k.RunUntil(c.k.now + time.Millisecond)
}

// retainedEntries is the entry capacity the wheel's slots and pool hold:
// the arena plus every grown array, in use or pooled.
func (w *timerWheel) retainedEntries() int {
	n := 0
	for l := range w.slots {
		for _, s := range w.slots[l] {
			n += cap(s)
		}
	}
	for _, class := range w.pool {
		for _, s := range class {
			n += cap(s)
		}
	}
	return n
}

// TestWheelRetainsPeakNotHistory: under idle-timeout churn the wheel's slot
// and pool capacity stays within four times the most entries ever queued at
// once, plus the arena, however long the run. It checks every second over
// four revolutions of level 2 (~69 s of virtual time). A wheel whose slots
// keep the arrays they grew into retains one per level-2 slot the clock has
// passed, and exceeds the bound within the first revolution. Once warm, the
// re-arm loop allocates nothing.
func TestWheelRetainsPeakNotHistory(t *testing.T) {
	const arena = wheelLevels * wheelSlots * wheelSlotCap
	revolution := Time(wheelSlots) << (wheelShift + 2*wheelBits)
	c := newWheelChurn(2000)
	for c.k.now < 4*revolution {
		c.step()
		if c.k.now%time.Second != 0 {
			continue
		}
		if n := c.k.wheel.retainedEntries(); n > 4*c.peak+arena {
			t.Fatalf("at %v the wheel retains %d entries of capacity, want <= 4 x peak %d + arena %d",
				c.k.now, n, c.peak, arena)
		}
	}
	if allocs := testing.AllocsPerRun(1000, c.step); allocs != 0 {
		t.Errorf("a warm re-arm step allocates %v times, want 0", allocs)
	}
}
