package sim

import (
	"strings"
	"testing"
	"time"
)

// TestKernelStatsCounters drives each introspection counter and checks the
// snapshot reflects it.
func TestKernelStatsCounters(t *testing.T) {
	k := New(1)
	// Near-term events execute without cascading.
	for i := 0; i < 10; i++ {
		k.After(time.Duration(i)*time.Microsecond, func() {})
	}
	// A far event lands in a higher wheel level and must cascade down.
	k.After(50*time.Millisecond, func() {})
	// An event beyond the wheel horizon (~13 days) waits in overflow and is
	// promoted when the cursor approaches.
	k.At(15*24*time.Hour, func() {})
	// Two overlapping monotone batches need two simultaneous lanes.
	atBatch(k, []Time{time.Millisecond, 2 * time.Millisecond}, func(int) {})
	atBatch(k, []Time{500 * time.Microsecond, 600 * time.Microsecond}, func(int) {})
	k.Run()

	s := k.Stats()
	if s.Events != k.Steps() || s.Events == 0 {
		t.Fatalf("Events = %d, want %d (nonzero)", s.Events, k.Steps())
	}
	if s.Scheduled < s.Events {
		t.Fatalf("Scheduled = %d < Events = %d", s.Scheduled, s.Events)
	}
	if s.Pending != 0 {
		t.Fatalf("Pending = %d after Run, want 0", s.Pending)
	}
	if s.WheelCascades == 0 {
		t.Fatal("WheelCascades = 0, want > 0 for a 50ms timer")
	}
	if s.WheelPromotions == 0 {
		t.Fatal("WheelPromotions = 0, want > 0 for a beyond-horizon timer")
	}
	if s.NearHighWater == 0 {
		t.Fatal("NearHighWater = 0, want > 0 after executing events")
	}
	if s.LanesHighWater != 2 {
		t.Fatalf("LanesHighWater = %d, want 2 for two overlapping batches", s.LanesHighWater)
	}
}

// TestKernelStatsProcs counts process starts, wake-ups and live processes: a
// process that sleeps twice is woken twice, one parked on a channel that
// never delivers stays live, and starting a process is not a switch.
func TestKernelStatsProcs(t *testing.T) {
	k := New(1)
	k.Go("sleeper", func(p *Proc) {
		p.Sleep(time.Millisecond)
		p.Sleep(time.Millisecond)
	})
	k.Go("returns-at-once", func(*Proc) {})
	never := NewChan[int](k)
	k.Go("parked", func(p *Proc) { never.Recv(p) })
	if s := k.Stats(); s.ProcStarts != 0 || s.LiveProcs != 0 {
		t.Fatalf("before Run: %+v, want no process started yet", s)
	}
	k.Run()
	s := k.Stats()
	if s.ProcStarts != 3 || s.ProcSwitches != 2 || s.LiveProcs != 1 {
		t.Fatalf("ProcStarts/ProcSwitches/LiveProcs = %d/%d/%d, want 3/2/1", s.ProcStarts, s.ProcSwitches, s.LiveProcs)
	}
	if got, want := s.String(), "proc_starts=3 proc_switches=2 live_procs=1"; !strings.HasSuffix(got, want) {
		t.Fatalf("String() = %q, want suffix %q", got, want)
	}
}

// TestKernelStatsObservationOnly checks that snapshotting stats mid-run does
// not perturb execution: two identical runs, one snapshotted aggressively,
// must execute the same events at the same times.
func TestKernelStatsObservationOnly(t *testing.T) {
	run := func(snapshot bool) (uint64, Time) {
		k := New(7)
		var last Time
		for i := 0; i < 100; i++ {
			d := time.Duration(k.Rand().Intn(1000)) * time.Microsecond
			k.After(d, func() { last = k.Now() })
		}
		for k.Step() {
			if snapshot {
				_ = k.Stats()
			}
		}
		return k.Steps(), last
	}
	s1, t1 := run(false)
	s2, t2 := run(true)
	if s1 != s2 || t1 != t2 {
		t.Fatalf("stats perturbed the run: %d/%v vs %d/%v", s1, t1, s2, t2)
	}
}

// TestShardGroupStats exercises the window-loop counters: busy/idle windows,
// cross-shard closure counts, virtual barrier stall, and the wall-stats gate.
func TestShardGroupStats(t *testing.T) {
	const look = time.Millisecond
	build := func() *ShardGroup {
		g := NewShardGroup(4, 2, 3, look)
		// Domain 0 pings domain 3 (different kernel under round-robin),
		// which pongs back; domain 1 runs local-only work.
		k0, k3 := g.Kernel(0), g.Kernel(3)
		k0.After(100*time.Microsecond, func() {
			g.Send(0, 3, k0.Now()+look, func() {
				g.Send(3, 0, k3.Now()+look, func() {})
			})
		})
		g.Kernel(1).After(50*time.Microsecond, func() {})
		return g
	}

	g := build()
	g.EnableWallStats()
	g.Run()
	st := g.Stats()
	if st.Windows == 0 {
		t.Fatal("Windows = 0 after Run")
	}
	if st.Lookahead != look {
		t.Fatalf("Lookahead = %v, want %v", st.Lookahead, look)
	}
	if len(st.Shards) != 2 {
		t.Fatalf("Shards = %d, want 2", len(st.Shards))
	}
	var sent, recv, busy uint64
	for _, s := range st.Shards {
		sent += s.SentMessages
		recv += s.RecvMessages
		busy += s.BusyWindows
		if s.BusyWindows+s.IdleWindows != st.Windows {
			t.Fatalf("shard %d: busy %d + idle %d != windows %d",
				s.Shard, s.BusyWindows, s.IdleWindows, st.Windows)
		}
	}
	if sent != 2 || recv != 2 {
		t.Fatalf("sent/recv = %d/%d, want 2/2", sent, recv)
	}
	if busy == 0 {
		t.Fatal("no shard was ever busy")
	}
	// Every busy window ends at most at the horizon, so total virtual stall
	// is bounded by busyWindows * lookahead.
	for _, s := range st.Shards {
		if s.BarrierStallVirtual < 0 || s.BarrierStallVirtual > Time(s.BusyWindows)*look {
			t.Fatalf("shard %d: virtual stall %v out of range [0, %v]",
				s.Shard, s.BarrierStallVirtual, Time(s.BusyWindows)*look)
		}
	}

	// Stats collection must not change what executed: same scenario without
	// wall stats has identical deterministic counters.
	g2 := build()
	g2.Run()
	st2 := g2.Stats()
	if st2.Windows != st.Windows {
		t.Fatalf("wall stats changed window count: %d vs %d", st2.Windows, st.Windows)
	}
	for i := range st.Shards {
		a, b := st.Shards[i], st2.Shards[i]
		if a.Kernel.Events != b.Kernel.Events || a.SentMessages != b.SentMessages ||
			a.BarrierStallVirtual != b.BarrierStallVirtual {
			t.Fatalf("shard %d deterministic stats diverged: %+v vs %+v", i, a, b)
		}
		if b.BarrierStallWall != 0 {
			t.Fatalf("shard %d: wall stall %v accumulated without EnableWallStats", i, b.BarrierStallWall)
		}
	}
}
