package sim

import (
	"fmt"
	"time"
)

// Kernel and shard-group introspection (DESIGN.md §17). Every number here is
// an observation of work the kernel already did: the counters are plain
// increments on paths that were doing real work anyway, they are never read
// back by scheduling decisions, and snapshotting them schedules nothing — so
// stats-on and stats-off runs of the same seed are bit-identical. The one
// exception is wall-clock barrier timing, which calls time.Now() per window
// worker and is therefore off until ShardGroup.EnableWallStats.

// KernelStats is a point-in-time snapshot of one kernel's execution and
// timer-queue behavior.
type KernelStats struct {
	// Events is the number of events executed so far (== Steps()).
	Events uint64
	// Scheduled is the number of events ever enqueued across all queues
	// (the kernel's sequence counter).
	Scheduled uint64
	// Pending is the number of live (scheduled, uncancelled, unfired)
	// events at snapshot time.
	Pending int
	// WheelCascades counts live timer entries the wheel's sweep moved down
	// a level before execution. High values mean many timers are scheduled
	// far enough ahead to land in coarse slots first.
	WheelCascades uint64
	// WheelPromotions counts entries promoted from the far-future overflow
	// heap into wheel slots as the cursor approached their horizon.
	WheelPromotions uint64
	// NearHighWater is the peak occupancy of the wheel's near min-heap —
	// the cursor-runs-ahead failure mode shows up here as unbounded growth.
	NearHighWater int
	// LanesHighWater is the peak number of AtBatch batches pending at once —
	// the length of the list every step scans.
	LanesHighWater int
	// CoroutinesCreated is the number of coroutines the kernel had to create
	// to run its processes; ProcStarts - CoroutinesCreated starts reused a
	// pooled one (DESIGN.md §23).
	CoroutinesCreated uint64
	// ProcStarts is the number of processes (Kernel.Go) started so far;
	// ProcSwitches the number of times the kernel woke a parked process —
	// each one a coroutine switch there and back, the cost DESIGN.md §21
	// sizes ports by; LiveProcs the processes started and not yet returned
	// at snapshot time (each pins a coroutine and its stack until
	// Kernel.Close).
	ProcStarts   uint64
	ProcSwitches uint64
	LiveProcs    int
}

// String renders the snapshot as one line of name=value pairs.
func (s KernelStats) String() string {
	return fmt.Sprintf("events=%d scheduled=%d pending=%d wheel_cascades=%d wheel_promotions=%d "+
		"near_high_water=%d lanes_high_water=%d proc_coroutines=%d proc_starts=%d proc_switches=%d live_procs=%d",
		s.Events, s.Scheduled, s.Pending, s.WheelCascades, s.WheelPromotions,
		s.NearHighWater, s.LanesHighWater, s.CoroutinesCreated, s.ProcStarts, s.ProcSwitches, s.LiveProcs)
}

// Stats snapshots the kernel's introspection counters. Safe to call at any
// point; it never modifies kernel state.
func (k *Kernel) Stats() KernelStats {
	return KernelStats{
		Events:            k.stepped,
		Scheduled:         k.seq,
		Pending:           k.live,
		WheelCascades:     k.wheel.cascades,
		WheelPromotions:   k.wheel.promotions,
		NearHighWater:     k.wheel.nearHigh,
		LanesHighWater:    k.stagedHigh,
		CoroutinesCreated: k.corosCreated,
		ProcStarts:        k.procStarts,
		ProcSwitches:      k.procSwitches,
		LiveProcs:         k.procs,
	}
}

// ShardStats is one shard's slice of a ShardGroup run.
type ShardStats struct {
	// Shard is the kernel index within the group.
	Shard int
	// Kernel is the hosted kernel's counter snapshot.
	Kernel KernelStats
	// BusyWindows counts lookahead windows in which this shard had events
	// to execute; IdleWindows counts the rest.
	BusyWindows uint64
	IdleWindows uint64
	// SentMessages counts cross-shard closures originating from domains
	// hosted on this shard; RecvMessages counts closures delivered to it.
	SentMessages uint64
	RecvMessages uint64
	// BarrierStallVirtual accumulates, per busy window, how far short of
	// the window horizon this shard's clock stopped — virtual time the
	// shard spent waiting on the barrier with no work left.
	BarrierStallVirtual Time
	// BarrierStallWall accumulates, per parallel window, the wall-clock gap
	// between this worker finishing and the slowest worker finishing. Only
	// populated after EnableWallStats (wall probes are not free, and their
	// values are machine-dependent — everything else in this struct is
	// deterministic).
	BarrierStallWall time.Duration
}

// GroupStats is a snapshot of a ShardGroup's window loop.
type GroupStats struct {
	// Windows is the number of lookahead windows executed.
	Windows uint64
	// Lookahead is the group's conservative lookahead width.
	Lookahead Time
	// Shards holds one entry per kernel, in kernel order.
	Shards []ShardStats
}

// EnableWallStats turns on wall-clock barrier-stall measurement for
// subsequent windows. Deterministic outputs are unaffected; only the
// machine-dependent BarrierStallWall fields start accumulating.
func (g *ShardGroup) EnableWallStats() { g.wallStats = true }

// Stats snapshots the group's window-loop counters and every kernel's
// introspection counters.
func (g *ShardGroup) Stats() GroupStats {
	out := GroupStats{
		Windows:   g.windows,
		Lookahead: g.look,
		Shards:    make([]ShardStats, len(g.kernels)),
	}
	for i, k := range g.kernels {
		out.Shards[i] = ShardStats{
			Shard:               i,
			Kernel:              k.Stats(),
			BusyWindows:         g.busyWins[i],
			IdleWindows:         g.idleWins[i],
			SentMessages:        g.sentMsgs[i],
			RecvMessages:        g.recvMsgs[i],
			BarrierStallVirtual: g.vStall[i],
			BarrierStallWall:    g.wStall[i],
		}
	}
	return out
}
