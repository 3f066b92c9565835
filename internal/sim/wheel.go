package sim

// This file implements the kernel's timer queue as a hierarchical timing
// wheel (Varghese & Lauck) with a near-term min-heap and a far-future
// overflow heap, replacing the former container/heap binary heap. The wheel
// keeps the exact total order the heap had — (when, seq) ascending — so
// every run is bit-identical to the heap implementation, while insert and
// remove become O(1) amortized with no interface boxing on the hot path.
//
// Geometry: wheelLevels levels of wheelSlots slots each. A level-0 slot
// covers 2^wheelShift ns (~1µs); each higher level is wheelSlots times
// coarser. Level l holds entries whose level-l slot index is within
// wheelSlots of the sweep cursor's; everything beyond the top level's
// horizon (~13 days of virtual time) waits in the overflow min-heap and is
// promoted when the cursor approaches.
//
// The sweep cursor `swept` is the collection boundary: every entry with
// when < swept has been moved into the `near` heap (or executed). Collection
// takes one level-0 slot at a time, found by scanning the level's occupancy
// bitmap rather than walking empty slots, so `near` holds at most one slot's
// entries plus stragglers scheduled behind the boundary (the kernel clock
// trails it) — a few hundred to a few thousand entries under load, small
// enough that its O(log m) sift is cheap. Pop takes the heap minimum, which
// is exactly the global (when, seq) minimum: every uncollected entry is >=
// swept and every near entry is < swept. A heap rather than a sorted run
// because stragglers arrive in no particular order: every packet's latency
// event, every host and switch delay stage lands a few microseconds ahead of
// the clock and so, as often as not, behind the boundary; a sorted run would
// pay an O(m) memmove for each.
//
// Cancellation and re-scheduling are lazy: entries carry the stamp their
// event had at insert time, Event.stamp increments on every Schedule, and
// stale or cancelled entries are dropped when they surface. This mirrors the
// old heap's lazy cancel drain and keeps Schedule O(1).
//
// Slot storage: each slot starts on its own piece of one arena. A slot that
// outgrows it moves to a power-of-two array from the wheel's pool and hands
// the array back when collection or a cascade empties the slot, so the
// capacity the wheel retains follows the most entries queued at once, not
// the largest each slot has ever been.

import "math/bits"

const (
	wheelShift  = 10 // level-0 tick: 2^10 ns ≈ 1µs
	wheelBits   = 8  // slots per level: 2^8
	wheelSlots  = 1 << wheelBits
	wheelMask   = wheelSlots - 1
	wheelLevels = 5 // horizon: 2^(10+8*5) ns ≈ 13 days of virtual time

	// wheelSlotCap is the per-slot capacity carved out of the init arena.
	// Slots that transiently exceed it move to a larger array from the
	// wheel's pool and hand it back when they empty; everything else appends
	// into pre-allocated storage. Pool and arena together keep the
	// steady-state datapath at zero allocations while the retained capacity
	// follows the peak of what is queued, not every slot's history.
	wheelSlotCap = 4
)

// timerEntry is one queued occurrence of an event. Entries are stored by
// value; when and seq are copied at insert time so later re-arms of the same
// Event cannot corrupt the sort order of the stale entry they leave behind.
type timerEntry struct {
	when  Time
	seq   uint64
	stamp uint32
	ev    *Event
}

// live reports whether the entry still represents its event's current
// schedule: the event was not cancelled and not re-armed since insertion.
func (e *timerEntry) live() bool {
	return e.ev.stamp == e.stamp && !e.ev.cancelled
}

func entryBefore(a, b timerEntry) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

type timerWheel struct {
	slots  [wheelLevels][wheelSlots][]timerEntry
	counts [wheelLevels]int // entries per level, stale included
	// arena holds every slot's first wheelSlotCap entries; an emptied slot
	// returns to its own piece (home).
	arena []timerEntry
	// pool holds the grown arrays of emptied slots, by size class: pool[c]
	// has arrays of capacity 1<<c, length 0, no entry holding an event.
	pool [bits.UintSize][][]timerEntry
	// occ is each level's slot-occupancy bitmap: bit s of level l is set
	// exactly when len(slots[l][s]) > 0. sweep finds the next populated slot
	// with a word scan instead of walking empty slots one at a time.
	occ   [wheelLevels][wheelSlots / 64]uint64
	swept Time // collection boundary: entries with when < swept are in near
	// near is a min-heap on (when, seq) of collected and behind-boundary
	// entries. It is the only place pop reads from.
	near []timerEntry
	// overflow is a min-heap on (when, seq) of entries beyond the wheel
	// horizon; sweep promotes them into the wheel as swept approaches.
	overflow []timerEntry

	// Introspection counters (sim.KernelStats). Plain increments on paths
	// that already do real work — never read on the hot path, never fed back
	// into scheduling decisions.
	cascades   uint64 // live entries moved down a level by sweep's cascade
	promotions uint64 // entries promoted from the overflow heap into slots
	nearHigh   int    // near-heap occupancy high-water mark
}

// init carves every slot's initial capacity out of one arena allocation, so
// a fresh kernel's timer slots are warm from the first event, keeping
// AllocsPerRun-pinned datapath tests at zero as the clock walks new slots.
// The wheel must be initialised before use.
func (w *timerWheel) init() {
	w.arena = make([]timerEntry, wheelLevels*wheelSlots*wheelSlotCap)
	for l := 0; l < wheelLevels; l++ {
		for s := 0; s < wheelSlots; s++ {
			w.slots[l][s] = w.home(l, s)
		}
	}
}

// home returns slot s of level l's own arena piece, empty.
func (w *timerWheel) home(l, s int) []timerEntry {
	off := (l*wheelSlots + s) * wheelSlotCap
	return w.arena[off : off : off+wheelSlotCap]
}

// take returns an empty array of capacity n, a power of two, from the pool;
// it allocates only when the pool has none of that size.
func (w *timerWheel) take(n int) []timerEntry {
	c := bits.TrailingZeros(uint(n))
	if k := len(w.pool[c]) - 1; k >= 0 {
		s := w.pool[c][k]
		w.pool[c][k] = nil
		w.pool[c] = w.pool[c][:k]
		return s
	}
	return make([]timerEntry, 0, n)
}

// release drops the event references of a slot array its slot is done with
// — O(len): no entry past len holds one — and returns a grown array to the
// pool. An arena piece stays where it is, for its slot to come back to.
func (w *timerWheel) release(s []timerEntry) {
	for i := range s {
		s[i].ev = nil
	}
	if cap(s) > wheelSlotCap {
		c := bits.TrailingZeros(uint(cap(s)))
		w.pool[c] = append(w.pool[c], s[:0])
	}
}

// entries returns the number of queued entries across all storage, stale
// ones included (diagnostics and tests only).
func (w *timerWheel) entries() int {
	n := len(w.near) + len(w.overflow)
	for _, c := range w.counts {
		n += c
	}
	return n
}

// add inserts an entry at the level matching its distance from the sweep
// cursor. Entries behind the cursor go straight to the near heap; entries
// beyond the top level's horizon go to the overflow heap.
//
// A full slot is compacted in place before growing: re-armed and cancelled
// events leave their stale entries behind in slots — a flow rule's idle
// timer and a FlowMemory entry's expiry are pushed out on every hit, and
// every HTTP call that completes cancels its timeout — and those sit seconds
// ahead, in coarse slots that fill long before the cursor reaches them.
// Compaction keeps such slots at their arena capacity instead of doubling
// into large backing arrays (without it cold-hybrid allocates 3.4 % more
// bytes per request and peaks 12 % higher in RSS); slots that are genuinely
// mostly live double into an array taken from the pool, and a grown array
// they leave goes back to it. Either way the work is amortized O(1) per insert: a
// compaction that frees less than half the slot is immediately followed by a
// doubling, so every scan is paid for by the inserts that filled the
// reclaimed or newly grown space.
func (w *timerWheel) add(e timerEntry) {
	if e.when < w.swept {
		entryHeapPush(&w.near, e)
		if len(w.near) > w.nearHigh {
			w.nearHigh = len(w.near)
		}
		return
	}
	for l := 0; l < wheelLevels; l++ {
		shift := uint(wheelShift + l*wheelBits)
		if (e.when>>shift)-(w.swept>>shift) < wheelSlots {
			idx := int(e.when>>shift) & wheelMask
			s := w.slots[l][idx]
			if len(s) == cap(s) && len(s) > 0 {
				kept := s[:0]
				for i := range s {
					if s[i].live() {
						kept = append(kept, s[i])
					}
				}
				w.counts[l] -= len(s) - len(kept)
				for i := len(kept); i < len(s); i++ {
					s[i].ev = nil
				}
				s = kept
				if len(s)*2 > cap(s) {
					grown := append(w.take(2*cap(s)), s...)
					w.release(s)
					s = grown
				}
			}
			w.slots[l][idx] = append(s, e)
			w.counts[l]++
			w.occ[l][idx>>6] |= 1 << (uint(idx) & 63)
			return
		}
	}
	entryHeapPush(&w.overflow, e)
}

// peek returns the wheel's smallest (when, seq) entry, or nil when no live
// entry exists at or before limit. Stale and cancelled entries surfacing at
// the head are dropped lazily, exactly like the old heap's cancel drain.
//
// The limit is a sweep bound, not a filter: an already-collected entry is
// returned even if it lies beyond limit, but the sweep cursor never chases
// entries past it. Callers that already hold an earlier candidate (an
// immediate or staged event) pass its timestamp, which keeps the cursor
// pinned near the clock. Without the bound the cursor would run ahead to
// far-future entries (pending timeouts), and every near-term event scheduled
// afterwards would land behind it — bloating the near heap without bound.
// Pass maxTime for an unbounded peek.
func (w *timerWheel) peek(limit Time) *timerEntry {
	for {
		for len(w.near) > 0 {
			en := &w.near[0]
			if !en.live() {
				entryHeapPop(&w.near)
				continue
			}
			return en
		}
		if !w.sweep(limit) {
			return nil
		}
	}
}

// pop removes and returns the head entry. Callers must have established via
// peek that a live head exists.
func (w *timerWheel) pop() timerEntry {
	return entryHeapPop(&w.near)
}

// sweep advances the collection boundary toward the next non-empty level-0
// slot and collects it into the near heap, cascading higher-level slots and
// promoting overflow entries as the cursor passes their horizon. The cursor
// never chases a slot that starts after limit: sweep parks there and reports
// false instead, leaving far entries in place so later near-term inserts
// still land in wheel slots. It reports whether anything was collected
// (false = nothing due at or before limit).
func (w *timerWheel) sweep(limit Time) bool {
	const topShift = uint(wheelShift + (wheelLevels-1)*wheelBits)
	for {
		// Promote far-future entries that now fit under the horizon.
		for len(w.overflow) > 0 && (w.overflow[0].when>>topShift)-(w.swept>>topShift) < wheelSlots {
			w.add(entryHeapPop(&w.overflow))
			w.promotions++
		}
		total := 0
		for _, c := range w.counts {
			total += c
		}
		if total == 0 {
			if len(w.overflow) == 0 || w.overflow[0].when > limit {
				return false
			}
			// Jump the cursor to the overflow minimum; the promotion above
			// migrates everything that fits on the next iteration.
			w.swept = w.overflow[0].when
			continue
		}
		// Cascade due higher-level slots down, top level first so freshly
		// cascaded entries landing in a lower due slot cascade again in the
		// same pass. An entry in the cursor's level-l slot always fits level
		// l-1 (same level-l index means the finer index difference is under
		// wheelSlots), so cascading strictly descends.
		for l := wheelLevels - 1; l >= 1; l-- {
			if w.counts[l] == 0 {
				continue
			}
			shift := uint(wheelShift + l*wheelBits)
			idx := int(w.swept>>shift) & wheelMask
			s := &w.slots[l][idx]
			if len(*s) == 0 {
				continue
			}
			w.counts[l] -= len(*s)
			for _, e := range *s {
				if e.live() {
					w.add(e)
					w.cascades++
				}
			}
			w.clearSlot(l, idx)
		}
		// Find the lowest populated level; empty lower levels let the cursor
		// jump whole slots at coarser granularity.
		low := 0
		for low < wheelLevels && w.counts[low] == 0 {
			low++
		}
		if low == wheelLevels {
			continue // cascade dropped stale entries; re-check overflow
		}
		shift := uint(wheelShift + low*wheelBits)
		idx := w.swept >> shift
		// The scan must stop at the enclosing coarser slot's boundary:
		// beyond it, a not-yet-cascaded higher-level entry could precede
		// anything further out at this level.
		bound := (idx &^ wheelMask) + wheelSlots
		// First populated slot at this level from the cursor to the boundary
		// (the window never wraps: bound is the next multiple of wheelSlots).
		advanced := idx&^wheelMask + Time(w.nextOccupied(low, int(idx)&wheelMask))
		if low == 0 {
			// Walking slot by slot, the cursor would park at the first slot
			// that starts after limit — if it got there before reaching a
			// populated one.
			park := limit>>wheelShift + 1
			if park < idx {
				park = idx
			}
			if park <= advanced && park < bound {
				if t := park << wheelShift; t > w.swept {
					w.swept = t
				}
				return false
			}
			if advanced < bound {
				w.collect(int(advanced) & wheelMask)
				w.swept = (advanced + 1) << wheelShift
				return true
			}
			w.swept = bound << shift
			continue
		}
		if t := advanced << shift; t > limit {
			// The populated slot starts beyond the limit: park at the slot
			// boundary covering limit instead of at the slot itself. Slots in
			// between are empty, so parking further would be a valid
			// collection boundary too — but crossing the limit is exactly the
			// cursor-runs-ahead failure mode the limit exists to prevent:
			// events scheduled afterwards (all near the clock, hence behind
			// the cursor) would pile into the near heap for the rest of the
			// run.
			if p := limit >> shift << shift; p > w.swept {
				w.swept = p
			}
			return false
		}
		w.swept = advanced << shift
		if advanced == bound {
			continue
		}
		// The cursor now sits on a populated coarser slot; the next pass
		// cascades it down to level 0.
	}
}

// collect moves one level-0 slot's live entries into the near heap. Stale
// entries are dropped here — stamps only ever advance, so an entry dead now
// can never come back to life.
func (w *timerWheel) collect(idx int) {
	s := w.slots[0][idx]
	w.counts[0] -= len(s)
	for _, e := range s {
		if e.live() {
			entryHeapPush(&w.near, e)
		}
	}
	w.clearSlot(0, idx)
	if len(w.near) > w.nearHigh {
		w.nearHigh = len(w.near)
	}
}

// clearSlot empties slot idx of level l, returning a grown array to the pool
// and the slot to its arena piece, and clears its occupancy bit.
func (w *timerWheel) clearSlot(l, idx int) {
	w.release(w.slots[l][idx])
	w.slots[l][idx] = w.home(l, idx)
	w.occ[l][idx>>6] &^= 1 << (uint(idx) & 63)
}

// nextOccupied returns the index of the first populated slot of level l at
// or after from, or wheelSlots when the rest of the level is empty.
func (w *timerWheel) nextOccupied(l, from int) int {
	word := from >> 6
	if b := w.occ[l][word] >> (uint(from) & 63); b != 0 {
		return from + bits.TrailingZeros64(b)
	}
	for word++; word < len(w.occ[l]); word++ {
		if b := w.occ[l][word]; b != 0 {
			return word<<6 + bits.TrailingZeros64(b)
		}
	}
	return wheelSlots
}

// entryHeapPush / entryHeapPop implement a plain value min-heap on
// (when, seq) — no interface boxing. Shared by the near and overflow heaps.
func entryHeapPush(hp *[]timerEntry, e timerEntry) {
	h := append(*hp, e)
	*hp = h
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !entryBefore(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func entryHeapPop(hp *[]timerEntry) timerEntry {
	h := *hp
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n].ev = nil
	*hp = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && entryBefore(h[l], h[min]) {
			min = l
		}
		if r < n && entryBefore(h[r], h[min]) {
			min = r
		}
		if min == i {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	return top
}
