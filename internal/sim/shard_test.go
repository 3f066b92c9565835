package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// pingDomains wires a ring of domains that bounce timestamped messages with
// latency >= lookahead and record every delivery as (domain, time, tag).
// Running it at several shard counts must produce identical logs.
func runPingRing(domains, shards int, rounds int) []string {
	const hop = 2 * time.Millisecond // inter-domain latency == lookahead
	g := NewShardGroup(domains, shards, 42, hop)
	// One log per domain: window workers run concurrently, so each domain
	// appends only to its own slice; the merged view concatenates in
	// domain order (the same order-insensitive reduction the replay layer
	// uses for its per-region series).
	logs := make([][]string, domains)
	var bounce func(d, hops int)
	bounce = func(d, hops int) {
		logs[d] = append(logs[d], fmt.Sprintf("d%d@%v#%d", d, g.Kernel(d).Now(), hops))
		if hops >= rounds {
			return
		}
		next := (d + 1) % domains
		at := g.Kernel(d).Now() + hop
		g.Send(d, next, at, func() { bounce(next, hops+1) })
	}
	for d := 0; d < domains; d++ {
		d := d
		// Staggered starts exercise the within-window execution path.
		g.Kernel(d).At(Time(d)*time.Microsecond, func() { bounce(d, 0) })
	}
	g.Run()
	var merged []string
	for _, l := range logs {
		merged = append(merged, l...)
	}
	return merged
}

func TestShardGroupParityAcrossShardCounts(t *testing.T) {
	want := runPingRing(9, 1, 12)
	for _, shards := range []int{2, 3, 4, 8, 9} {
		got := runPingRing(9, shards, 12)
		if len(got) != len(want) {
			t.Fatalf("shards=%d: %d deliveries, want %d", shards, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("shards=%d diverged at %d: %q vs %q", shards, i, got[i], want[i])
			}
		}
	}
}

func TestShardGroupRunUntil(t *testing.T) {
	g := NewShardGroup(4, 2, 1, time.Millisecond)
	firedBy := make([]int, 4) // per-domain: window workers run concurrently
	for d := 0; d < 4; d++ {
		d := d
		g.Kernel(d).At(Time(d+1)*10*time.Millisecond, func() { firedBy[d]++ })
	}
	total := func() int {
		n := 0
		for _, c := range firedBy {
			n += c
		}
		return n
	}
	g.RunUntil(25 * time.Millisecond)
	if total() != 2 {
		t.Fatalf("fired = %d, want 2 (events at 10ms and 20ms)", total())
	}
	for d := 0; d < 4; d++ {
		if g.Kernel(d).Now() != 25*time.Millisecond {
			t.Fatalf("domain %d clock = %v, want 25ms", d, g.Kernel(d).Now())
		}
	}
	g.Run()
	if total() != 4 {
		t.Fatalf("fired = %d after Run, want 4", total())
	}
}

// A message timed below the window horizon means a link undercut the
// declared lookahead; the group must panic loudly instead of diverging.
func TestShardGroupLookaheadViolationPanics(t *testing.T) {
	g := NewShardGroup(2, 2, 1, 10*time.Millisecond)
	g.Kernel(0).At(time.Millisecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("Send below the horizon must panic")
			}
		}()
		g.Send(0, 1, g.Kernel(0).Now()+time.Millisecond, func() {})
	})
	g.Run()
}

func TestShardGroupShardClamping(t *testing.T) {
	g := NewShardGroup(3, 8, 1, time.Millisecond)
	if g.Shards() != 3 {
		t.Fatalf("Shards() = %d, want 3 (clamped to domain count)", g.Shards())
	}
	if g.Kernel(0) == g.Kernel(1) || g.Kernel(1) == g.Kernel(2) {
		t.Fatal("domains must map to distinct kernels when shards == domains")
	}
}

// Same-timestamp cross-domain messages from different sources must deliver
// in (time, src, per-src seq) order regardless of partitioning.
func TestShardGroupMessageTieOrder(t *testing.T) {
	run := func(shards int) []string {
		const hop = time.Millisecond
		g := NewShardGroup(4, shards, 7, hop)
		var got []string
		at := 5 * time.Millisecond
		for _, src := range []int{2, 0, 1} {
			src := src
			g.Kernel(src).At(time.Millisecond, func() {
				// Two messages per source, same destination and delivery
				// time: per-source seq breaks the tie.
				g.Send(src, 3, at, func() { got = append(got, fmt.Sprintf("s%d.0", src)) })
				g.Send(src, 3, at, func() { got = append(got, fmt.Sprintf("s%d.1", src)) })
			})
		}
		g.Run()
		return got
	}
	want := []string{"s0.0", "s0.1", "s1.0", "s1.1", "s2.0", "s2.1"}
	for _, shards := range []int{1, 2, 4} {
		got := run(shards)
		if len(got) != len(want) {
			t.Fatalf("shards=%d: got %v, want %v", shards, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("shards=%d: got %v, want %v", shards, got, want)
			}
		}
	}
}

// window is one lookahead window of a ShardGroup run.
type window struct{ floor, horizon Time }

// probedWindows is run, recording each window: the loop up to limit (< 0:
// exhaustion), then the clock advance RunUntil adds.
func probedWindows(g *ShardGroup, limit Time) (wins []window) {
	defer g.dismiss()
	for {
		g.drain()
		floor, ok := g.probe(limit)
		if !ok {
			break
		}
		wins = append(wins, window{floor, g.horizon})
		g.dispatch()
	}
	for _, k := range g.kernels {
		k.advance(limit)
	}
	return wins
}

// oracleWindows is probedWindows with the floor computed as it was before
// the bounded probe: the minimum of an unbounded NextWhen on every kernel,
// which sweeps an idle kernel's wheel cursor out to its next timer.
func oracleWindows(g *ShardGroup, limit Time) (wins []window) {
	defer g.dismiss()
	for {
		g.drain()
		floor, ok := Time(0), false
		for _, k := range g.kernels {
			if w, kok := k.NextWhen(); kok && (!ok || w < floor) {
				floor, ok = w, true
			}
		}
		if !ok || limit >= 0 && floor > limit {
			break
		}
		g.horizon = floor + g.look
		if limit >= 0 && g.horizon > limit+1 {
			g.horizon = limit + 1
		}
		g.busy, g.busyIdx = g.busy[:0], g.busyIdx[:0]
		for i, k := range g.kernels {
			if src, _, w := k.nextSource(g.horizon); src != srcNone && w < g.horizon {
				g.busy = append(g.busy, k)
				g.busyIdx = append(g.busyIdx, i)
			}
		}
		wins = append(wins, window{floor, g.horizon})
		g.dispatch()
	}
	for _, k := range g.kernels {
		k.advance(limit)
	}
	return wins
}

// runAheadGroup is three kernels: kernel 0 replays an arrival lane and every
// 2 ms sends kernel 2 a message; kernel 1 holds only a timer ten seconds
// out; kernel 2 holds a timer five seconds out and no lane until the
// messages arrive, each of which starts 10 ms of local traffic there.
func runAheadGroup() *ShardGroup {
	const look = time.Millisecond
	g := NewShardGroup(3, 3, 1, look)
	k0, k1, k2 := g.Kernel(0), g.Kernel(1), g.Kernel(2)
	k1.At(10*time.Second, func() {})
	k2.At(5*time.Second, func() {})
	arrivals := make([]Time, 2000)
	for i := range arrivals {
		arrivals[i] = 100*time.Millisecond + Time(i)*100*time.Microsecond
	}
	atBatch(k0, arrivals, func(i int) {
		if i%20 != 0 {
			return
		}
		g.Send(0, 2, k0.Now()+look, func() {
			for j := 1; j <= 40; j++ {
				k2.After(Time(j)*250*time.Microsecond, func() {})
			}
		})
	})
	return g
}

// The bounded floor probe opens exactly the windows the unbounded floor
// did, and an idle kernel's wheel cursor no longer runs seconds ahead: the
// traffic it carries afterwards stays in wheel slots instead of piling into
// the near heap.
func TestShardGroupProbeMatchesUnboundedFloor(t *testing.T) {
	const mid = 150 * time.Millisecond
	oracle, probed := runAheadGroup(), runAheadGroup()
	want := append(oracleWindows(oracle, mid), oracleWindows(oracle, -1)...)
	got := append(probedWindows(probed, mid), probedWindows(probed, -1)...)
	if len(got) != len(want) {
		t.Fatalf("%d windows, the unbounded floor opens %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("window %d is %+v, the unbounded floor's is %+v", i, got[i], want[i])
		}
	}

	g := runAheadGroup()
	g.RunUntil(mid)
	g.Run()
	if w := g.Stats().Windows; w != uint64(len(want)) {
		t.Errorf("RunUntil+Run opened %d windows, want %d", w, len(want))
	}
	// Kernel 2 has over a hundred events outstanding at a time. The unbounded
	// floor swept its cursor to 5 s before any arrived, so all of them
	// queued in the near heap; probed up to a bound, the heap holds what
	// falls behind a cursor parked within one idle gap of the floor.
	const nearBound = 16
	if n := oracle.Kernel(2).Stats().NearHighWater; n <= nearBound {
		t.Fatalf("the unbounded floor reached a near-heap high water of only %d: the scenario no longer runs a cursor ahead", n)
	}
	for _, gg := range []*ShardGroup{probed, g} {
		if n := gg.Kernel(2).Stats().NearHighWater; n > nearBound {
			t.Errorf("idle kernel's near-heap high water %d, want <= %d", n, nearBound)
		}
	}
}

// TestShardGroupCrewStress runs thousands of short windows with random sets
// of busy kernels at several shard counts and GOMAXPROCS values (so both
// the spinning and the parking crew), compares every delivery with one
// shard's, and checks that no worker goroutine outlives RunUntil, Run or
// Close. A lost wake-up fails the test at its deadline instead of hanging
// the suite.
func TestShardGroupCrewStress(t *testing.T) {
	const domains, look, hops = 8, time.Millisecond, 2000
	scenario := func(shards int, mid Time, check func(after string)) ([][]string, uint64) {
		g := NewShardGroup(domains, shards, 1, look)
		logs := make([][]string, domains)
		rngs := make([]*rand.Rand, domains)
		var hop func(d, left int)
		hop = func(d, left int) {
			k := g.Kernel(d)
			logs[d] = append(logs[d], fmt.Sprintf("%v#%d", k.Now(), left))
			if left == 0 {
				return
			}
			r := rngs[d]
			if dst := r.Intn(2 * domains); dst < domains {
				g.Send(d, dst, k.Now()+look+Time(r.Intn(3000))*time.Microsecond, func() { hop(dst, left-1) })
			} else {
				k.After(Time(r.Intn(1500))*time.Microsecond, func() { hop(d, left-1) })
			}
		}
		for d := range rngs {
			rngs[d] = rand.New(rand.NewSource(int64(d)))
			for c := 0; c < 2; c++ {
				g.Kernel(d).At(Time(rngs[d].Intn(5000))*time.Microsecond, func() { hop(d, hops) })
			}
		}
		g.RunUntil(mid)
		check("RunUntil")
		g.Run()
		check("Run")
		g.Close()
		check("Close")
		return logs, g.Stats().Windows
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
		base := settledGoroutines()
		want, windows := scenario(1, 0, func(string) {})
		mid := Time(windows/2) * look
		if windows < 2000 {
			t.Errorf("%d windows, want thousands", windows)
		}
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			for _, shards := range []int{2, 3, 8} {
				check := func(after string) {
					if n := settledGoroutines(); n != base {
						t.Errorf("GOMAXPROCS=%d shards=%d: %d goroutines after %s, %d before", procs, shards, n, after, base)
					}
				}
				got, _ := scenario(shards, mid, check)
				for d := range want {
					if fmt.Sprint(got[d]) != fmt.Sprint(want[d]) {
						t.Errorf("GOMAXPROCS=%d shards=%d: domain %d's deliveries differ from one shard's", procs, shards, d)
					}
				}
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(3 * time.Minute):
		t.Fatal("stress run did not finish: a crew member missed its wake-up")
	}
}
