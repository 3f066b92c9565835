package sim

import (
	"fmt"
	"testing"
	"time"
	"unsafe"
)

// BenchmarkKernelEvents measures raw event throughput of the DES kernel
// (schedule + dispatch of independent callbacks).
func BenchmarkKernelEvents(b *testing.B) {
	k := New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.After(time.Duration(i)*time.Nanosecond, func() {})
	}
	k.Run()
}

// BenchmarkKernelNestedEvents measures the common simulation pattern of
// events scheduling follow-up events (one live chain).
func BenchmarkKernelNestedEvents(b *testing.B) {
	k := New(1)
	n := 0
	var step func()
	step = func() {
		n++
		if n < b.N {
			k.After(time.Microsecond, step)
		}
	}
	b.ResetTimer()
	k.After(0, step)
	k.Run()
}

// BenchmarkProcContextSwitch measures the goroutine-process handoff cost
// (park/resume round trip through the kernel).
func BenchmarkProcContextSwitch(b *testing.B) {
	k := New(1)
	k.Go("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	b.ResetTimer()
	k.Run()
}

// BenchmarkChanPingPong measures two processes exchanging messages through
// sim channels.
func BenchmarkChanPingPong(b *testing.B) {
	k := New(1)
	ping := NewChan[int](k)
	pong := NewChan[int](k)
	k.Go("a", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			ping.Send(i)
			pong.Recv(p)
		}
	})
	k.Go("b", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			v, _ := ping.Recv(p)
			pong.Send(v)
		}
	})
	b.ResetTimer()
	k.Run()
}

// BenchmarkKernelAfterFree measures the pooled fire-and-forget path used by
// process wake-ups and packet deliveries (steady state: zero allocations).
func BenchmarkKernelAfterFree(b *testing.B) {
	k := New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.AfterFree(time.Microsecond, func() {})
		k.Step()
	}
}

// BenchmarkKernelDefer measures the zero-delay immediate queue.
func BenchmarkKernelDefer(b *testing.B) {
	k := New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Defer(func() {})
		k.Step()
	}
}

// BenchmarkKernelAtBatch measures scheduling a whole monotone arrival
// schedule (one trace) and draining it, versus per-event heap pushes. The
// batch reads the schedule in place, so B/op is the fresh kernel's own
// wheel arena whatever the schedule's length.
func BenchmarkKernelAtBatch(b *testing.B) {
	times := make([]Time, 100000)
	for i := range times {
		times[i] = time.Duration(i) * time.Microsecond
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := New(1)
		atBatch(k, times, func(int) {})
		k.Run()
	}
}

// BenchmarkWheelChurn runs wheelChurn's idle-timeout pattern (2000 timers,
// four re-armed a second ahead per virtual millisecond), one millisecond per
// op, and reports the bytes of slot and pool capacity the wheel retains
// beyond its arena at the end, with the most entries ever queued at once.
// Slots hand grown arrays back to a shared pool when they empty, so
// retained-B stays flat as -benchtime grows past one level-2 revolution
// (17 180 ops) instead of climbing until every level-2 slot has grown.
func BenchmarkWheelChurn(b *testing.B) {
	c := newWheelChurn(2000)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		c.step()
	}
	grown := c.k.wheel.retainedEntries() - wheelLevels*wheelSlots*wheelSlotCap
	b.ReportMetric(float64(grown*int(unsafe.Sizeof(timerEntry{}))), "retained-B")
	b.ReportMetric(float64(c.peak), "peak-entries")
}

// BenchmarkKernelHeapSchedule is the baseline for BenchmarkKernelAtBatch:
// the same monotone schedule through individual heap events.
func BenchmarkKernelHeapSchedule(b *testing.B) {
	times := make([]Time, 100000)
	for i := range times {
		times[i] = time.Duration(i) * time.Microsecond
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := New(1)
		for _, t := range times {
			k.At(t, func() {})
		}
		k.Run()
	}
}

// BenchmarkKernelSparseSweep is the ledger's sparse-timeline unit: one live
// timer chain whose next event is 1 or 200 level-0 wheel slots (~1 us each)
// ahead, the spacing of a lone flow's packets on a fast link. The sweep finds
// the next populated slot with a bitmap word scan, so the empty slots in
// between must cost next to nothing; the gate fails if an event 200 slots
// out costs more than twice an adjacent one (walking the slots one by one
// measured 5.5x).
func BenchmarkKernelSparseSweep(b *testing.B) {
	perOp := map[int]time.Duration{}
	for _, gap := range []int{1, 200} {
		b.Run(fmt.Sprintf("gap%d", gap), func(b *testing.B) {
			b.ReportAllocs()
			k := New(1)
			n := 0
			var e *Event
			e = k.NewEvent(func() {
				if n++; n < b.N {
					k.Schedule(e, k.now+Time(gap)<<wheelShift)
				}
			})
			k.Schedule(e, 0)
			b.ResetTimer()
			k.Run()
			perOp[gap] = b.Elapsed() / time.Duration(b.N)
		})
	}
	b.Run("within-2x", func(b *testing.B) {
		if perOp[1] == 0 || perOp[200] == 0 {
			b.Skip("gap1 or gap200 filtered out; nothing to compare")
		}
		ratio := float64(perOp[200]) / float64(perOp[1])
		b.ReportMetric(ratio, "gap200/gap1")
		if ratio > 2 {
			b.Fatalf("an event 200 empty slots ahead costs %.2fx an adjacent one (%v vs %v), want <= 2x", ratio, perOp[200], perOp[1])
		}
	})
}

// BenchmarkShardWindow is the window barrier's per-layer cost gate: a
// two-kernel group in which each kernel runs one event per window, so a
// window is nearly all coordination — drain, probe, hand-off to the worker
// and the wait for it. It reports the cost per window.
func BenchmarkShardWindow(b *testing.B) {
	const look = time.Microsecond
	g := NewShardGroup(2, 2, 1, look)
	for d := 0; d < 2; d++ {
		k, n := g.Kernel(d), 0
		var tick func()
		tick = func() {
			if n++; n < b.N {
				k.After(look, tick)
			}
		}
		k.At(0, tick)
	}
	b.ResetTimer()
	g.Run()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(g.Stats().Windows), "ns/window")
}
