package simnet

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"transparentedge/internal/obs"
	"transparentedge/internal/sim"
)

// The fair-share link used to give every serializing transfer its own kernel
// event and re-arm the whole cohort on every arrival and departure. That
// algorithm is kept here, on its own kernel, as the reference the
// one-event-per-direction implementation must match to the nanosecond
// (DESIGN.md §20): same delivery instants, same delivery order across both
// directions of a link, same drops when the link is severed mid-run.

// cohortTransfer is one packet of the reference model.
type cohortTransfer struct {
	id         uint64
	remaining  float64
	rate       float64
	updated    sim.Time
	ev         *sim.Event
	delivering bool
}

// cohortDirection is one direction of the reference link.
type cohortDirection struct {
	k        *sim.Kernel
	capacity float64 // bytes per second
	latency  time.Duration
	active   []*cohortTransfer
	severed  *bool
	deliver  func(id uint64)
	dropped  *uint64
}

func (d *cohortDirection) transmit(id uint64, size Bytes) {
	if *d.severed {
		*d.dropped++
		return
	}
	t := &cohortTransfer{id: id, remaining: float64(size), updated: d.k.Now()}
	t.ev = d.k.NewEvent(func() { d.fire(t) })
	d.active = append(d.active, t)
	d.rebalance()
}

func (d *cohortDirection) rebalance() {
	now := d.k.Now()
	for _, t := range d.active {
		elapsed := (now - t.updated).Seconds()
		t.remaining -= t.rate * elapsed
		if t.remaining < 0 {
			t.remaining = 0
		}
		t.updated = now
	}
	n := len(d.active)
	if n == 0 {
		return
	}
	share := d.capacity / float64(n)
	for _, t := range d.active {
		t.rate = share
		d.k.Schedule(t.ev, now+time.Duration(t.remaining/share*float64(time.Second)))
	}
}

func (d *cohortDirection) fire(t *cohortTransfer) {
	if !t.delivering {
		for i, a := range d.active {
			if a == t {
				d.active = append(d.active[:i], d.active[i+1:]...)
				break
			}
		}
	}
	switch {
	case *d.severed:
		*d.dropped++ // no rebalance: the rest drop at their own events
	case t.delivering:
		d.deliver(t.id)
	default:
		d.rebalance()
		t.delivering = true
		d.k.Schedule(t.ev, d.k.Now()+d.latency)
	}
}

// delivery is one packet handed to a node: which, where and when.
type delivery struct {
	id   uint64
	node string
	at   sim.Time
}

// recorderNode frees every delivered packet and logs the delivery.
type recorderNode struct {
	name string
	net  *Network
	log  *[]delivery
}

func (r *recorderNode) Name() string { return r.name }
func (r *recorderNode) HandlePacket(in *Port, pkt *Packet) {
	*r.log = append(*r.log, delivery{id: pkt.ID, node: r.name, at: r.net.K.Now()})
	r.net.FreePacket(pkt)
}

// arrival is one generated send: instant, size, and which end transmits.
type arrival struct {
	at    sim.Time
	size  Bytes
	fromB bool
}

// genArrivals draws a schedule that keeps both directions contended: bursts
// of up to 40 same-instant sends, gaps sized so the offered load hovers
// around the link rate, sizes from control-segment to multi-MTU.
func genArrivals(rng *rand.Rand, n int, bw BitsPerSec) []arrival {
	out := make([]arrival, 0, n)
	var now sim.Time
	for len(out) < n {
		burst := 1
		if rng.Intn(4) == 0 {
			burst = 2 + rng.Intn(39)
		}
		var sent Bytes
		for i := 0; i < burst && len(out) < n; i++ {
			size := Bytes(64 + rng.Intn(1500))
			switch rng.Intn(10) {
			case 0:
				size = minWireSize
			case 1:
				size = Bytes(16+rng.Intn(240)) * KiB
			}
			sent += size
			out = append(out, arrival{at: now, size: size, fromB: rng.Intn(3) == 0})
		}
		// Time the burst needs at line rate, scaled by 0.25..1.5.
		need := time.Duration(float64(sent) * 8 / float64(bw) * float64(time.Second))
		now += time.Duration(float64(need) * (0.25 + 1.25*rng.Float64()))
		if rng.Intn(50) == 0 {
			now += time.Duration(rng.Intn(5000)) * time.Microsecond // let it drain
		}
	}
	return out
}

func TestDirectionMatchesCohortRearm(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			bw := []BitsPerSec{Mbps, 37 * Mbps, 100 * Mbps, Gbps}[seed-1] + BitsPerSec(rng.Intn(1000))
			latency := time.Duration(50+rng.Intn(5000)) * time.Microsecond
			arrivals := genArrivals(rng, 6000, bw)
			// Sever the link while the last fifth of the schedule is still
			// arriving: a cohort is serializing and packets are propagating.
			detachAt := arrivals[len(arrivals)*4/5].at + 1

			// Implementation under test.
			k := sim.New(seed)
			n := NewNetwork(k)
			reg := obs.NewRegistry()
			n.SetObs(reg)
			var got []delivery
			a := &recorderNode{name: "a", net: n, log: &got}
			b := &recorderNode{name: "b", net: n, log: &got}
			pa, pb := n.Connect(a, b, LinkConfig{Name: "l", Latency: latency, Bandwidth: bw})
			ue := NewHost(n, "ue", "10.0.0.1") // only there to Detach the link
			ue.SetUplink(pa)

			// Reference: the cohort re-arm model on its own kernel.
			rk := sim.New(seed)
			var want []delivery
			var severed bool
			var refDropped uint64
			ref := [2]*cohortDirection{}
			for i, to := range []string{"b", "a"} {
				to := to
				d := &cohortDirection{k: rk, capacity: float64(bw) / 8, latency: latency, severed: &severed, dropped: &refDropped}
				d.deliver = func(id uint64) { want = append(want, delivery{id: id, node: to, at: rk.Now()}) }
				ref[i] = d
			}

			// Stage the same schedule on both kernels, detach included, in
			// the same order (so same-instant ties break the same way).
			staged := false
			for i, ar := range arrivals {
				if !staged && ar.at >= detachAt {
					k.At(detachAt, ue.Detach)
					rk.At(detachAt, func() { severed = true })
					staged = true
				}
				id, ar := uint64(i+1), ar
				port, dir := pa, ref[0]
				if ar.fromB {
					port, dir = pb, ref[1]
				}
				k.At(ar.at, func() {
					pkt := n.NewPacket()
					pkt.Kind, pkt.ID, pkt.Size = KindDATA, id, ar.size
					port.Send(pkt)
				})
				rk.At(ar.at, func() { dir.transmit(id, ar.size) })
			}
			if !staged {
				t.Fatal("schedule never reached the detach instant")
			}
			// Drops deliver nothing, so sample the drop counters on a grid
			// after the detach: the doomed cohort must die at the same
			// instants on both sides, not just in the same number.
			link := pa.Link()
			var gotDrops, wantDrops []uint64
			step := (arrivals[len(arrivals)-1].at - detachAt + 4*latency) / 64
			for i := 1; i <= 80; i++ {
				at := detachAt + sim.Time(i)*step
				k.At(at, func() { gotDrops = append(gotDrops, link.Dropped) })
				rk.At(at, func() { wantDrops = append(wantDrops, refDropped) })
			}
			k.Run()
			rk.Run()
			for i := range gotDrops {
				if gotDrops[i] != wantDrops[i] {
					t.Fatalf("drop sample %d: %d dropped, reference %d", i, gotDrops[i], wantDrops[i])
				}
			}

			if len(got) != len(want) {
				t.Fatalf("delivered %d packets, reference delivered %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("delivery %d: got packet %d at %s after %v, reference packet %d at %s after %v",
						i, got[i].id, got[i].node, got[i].at, want[i].id, want[i].node, want[i].at)
				}
			}
			if refDropped == 0 || len(want) == 0 {
				t.Fatalf("degenerate run: %d deliveries, %d drops", len(want), refDropped)
			}
			if link.Dropped != refDropped || n.DetachDrops != refDropped {
				t.Errorf("Link.Dropped %d, DetachDrops %d, reference dropped %d", link.Dropped, n.DetachDrops, refDropped)
			}
			if uint64(len(got))+link.Dropped != uint64(len(arrivals)) {
				t.Errorf("%d delivered + %d dropped != %d sent", len(got), link.Dropped, len(arrivals))
			}
			gets := reg.Counter("simnet_packet_pool_gets_total").Value()
			puts := reg.Counter("simnet_packet_pool_puts_total").Value()
			if gets != puts {
				t.Errorf("packet pool unbalanced: %d gets, %d puts", gets, puts)
			}
			if ab, ba := link.ActiveTransfers(); ab != 0 || ba != 0 {
				t.Errorf("ActiveTransfers = %d, %d after the run, want 0, 0", ab, ba)
			}
			if k.Pending() != 0 {
				t.Errorf("%d events still pending: an empty direction kept its event armed", k.Pending())
			}
			if k.Stats().Events != rk.Stats().Events {
				t.Errorf("fired %d events, reference fired %d", k.Stats().Events, rk.Stats().Events)
			}
		})
	}
}
