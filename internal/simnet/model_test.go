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
// implementation — one event per contended direction, one event per lone
// transfer — must match to the nanosecond (DESIGN.md §20): same delivery
// instants, same delivery order across both directions of a link, same drops
// when the link is severed mid-run.

// cohortTransfer is one packet of the reference model.
type cohortTransfer struct {
	id         uint64
	remaining  float64
	rate       float64
	updated    sim.Time
	ev         *sim.Event
	delivering bool
}

// cohortLink is what the two reference directions share: the link's state.
type cohortLink struct {
	latency time.Duration // configured + impairment; read when serialization ends
	down    bool
	severed bool
	dropped uint64 // severed-link drops
	lost    uint64 // link-down drops
}

// cohortDirection is one direction of the reference link.
type cohortDirection struct {
	k        *sim.Kernel
	link     *cohortLink
	capacity float64 // bytes per second
	active   []*cohortTransfer
	deliver  func(id uint64)
}

func (d *cohortDirection) transmit(id uint64, size Bytes) {
	if d.link.severed {
		d.link.dropped++
		return
	}
	if d.link.down {
		d.link.lost++
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
	case d.link.severed:
		d.link.dropped++ // no rebalance: the rest drop at their own events
	case t.delivering:
		d.deliver(t.id)
	default:
		d.rebalance()
		t.delivering = true
		d.k.Schedule(t.ev, d.k.Now()+d.link.latency)
	}
}

// delivery is one packet handed to a node: which, where and when.
type delivery struct {
	id   uint64
	node string
	at   sim.Time
}

// recorderNode frees every delivered packet, logs the delivery and hands the
// packet's ID on (the harness may answer it from inside the callback).
type recorderNode struct {
	name      string
	net       *Network
	log       *[]delivery
	delivered func(id uint64)
}

func (r *recorderNode) Name() string { return r.name }
func (r *recorderNode) HandlePacket(in *Port, pkt *Packet) {
	id := pkt.ID
	*r.log = append(*r.log, delivery{id: id, node: r.name, at: r.net.K.Now()})
	r.net.FreePacket(pkt)
	if r.delivered != nil {
		r.delivered(id)
	}
}

// linkOp is one step of a scenario: a send (size > 0) from one end, or a
// change of the link's state.
type linkOp struct {
	at     sim.Time
	size   Bytes // send: bytes on the wire, transmitted by a, or by b if fromB
	fromB  bool
	impair bool // Impair(0, extra)
	extra  time.Duration
	detach bool
	down   bool // SetDown(true)
	up     bool // SetDown(false)
	// armAt, when set, stages the op from an event at that instant instead of
	// before the run, so its sequence number is drawn after those of
	// everything armed by then — a solo's delivery included.
	armAt sim.Time
}

// echoBase separates the IDs of packets sent from inside a delivery callback
// from those of the scenario's own sends (the op's index + 1).
const echoBase = 1 << 32

// linkScenario is a schedule of sends and state changes on one link.
type linkScenario struct {
	bw      BitsPerSec
	latency time.Duration
	ops     []linkOp
	// echo sends a packet from inside the delivery callback of the packet
	// with the given ID; the echoed packet's ID is echoBase + that ID.
	echo map[uint64]linkOp
	// samples are instants at which the drop counters are compared (drops
	// deliver nothing, so the log alone does not place them in time).
	samples []sim.Time
}

// linkOutcome is what a scenario's case-specific assertions look at.
type linkOutcome struct {
	log          []delivery
	dropped      uint64 // severed-link drops
	lost         uint64 // link-down drops
	solo         uint64 // transfers that completed solo
	materialised uint64
	events       uint64
}

// at returns when packet id was delivered, or fails.
func (o *linkOutcome) at(t *testing.T, id uint64) sim.Time {
	t.Helper()
	for _, d := range o.log {
		if d.id == id {
			return d.at
		}
	}
	t.Fatalf("packet %d was never delivered", id)
	return 0
}

// runLinkScenario plays sc on the implementation and on the reference model,
// each on its own kernel with everything staged in the same order (so
// same-instant ties break the same way), and asserts that the two agree on
// every delivery — packet, node, nanosecond, order across both directions —
// on the drop counters at every sample, and that the implementation ends
// clean: pool balanced, nothing serializing, nothing armed, and exactly the
// reference's fired events minus one per transfer that completed solo.
func runLinkScenario(t *testing.T, seed int64, sc linkScenario) linkOutcome {
	t.Helper()

	// Implementation under test.
	k := sim.New(seed)
	n := NewNetwork(k)
	reg := obs.NewRegistry()
	n.SetObs(reg)
	var got []delivery
	a := &recorderNode{name: "a", net: n, log: &got}
	b := &recorderNode{name: "b", net: n, log: &got}
	pa, pb := n.Connect(a, b, LinkConfig{Name: "l", Latency: sc.latency, Bandwidth: sc.bw})
	link := pa.Link()
	ue := NewHost(n, "ue", "10.0.0.1") // only there to Detach the link
	ue.SetUplink(pa)
	send := func(id uint64, op linkOp) {
		pkt := n.NewPacket()
		pkt.Kind, pkt.ID, pkt.Size = KindDATA, id, op.size
		if op.fromB {
			pb.Send(pkt)
		} else {
			pa.Send(pkt)
		}
	}

	// Reference: the cohort re-arm model on its own kernel.
	rk := sim.New(seed)
	var want []delivery
	rl := &cohortLink{latency: sc.latency}
	var ref [2]*cohortDirection
	refSend := func(id uint64, op linkOp) {
		if op.fromB {
			ref[1].transmit(id, op.size)
		} else {
			ref[0].transmit(id, op.size)
		}
	}
	for i, to := range []string{"b", "a"} {
		to := to
		d := &cohortDirection{k: rk, link: rl, capacity: float64(sc.bw) / 8}
		d.deliver = func(id uint64) {
			want = append(want, delivery{id: id, node: to, at: rk.Now()})
			if op, ok := sc.echo[id]; ok {
				refSend(echoBase+id, op)
			}
		}
		ref[i] = d
	}
	echo := func(id uint64) {
		if op, ok := sc.echo[id]; ok {
			send(echoBase+id, op)
		}
	}
	a.delivered, b.delivered = echo, echo

	sends := uint64(len(sc.echo))
	for i, op := range sc.ops {
		id, op := uint64(i+1), op
		var do, refDo func()
		switch {
		case op.impair:
			do = func() { link.Impair(0, op.extra) }
			refDo = func() { rl.latency = sc.latency + op.extra }
		case op.detach:
			do = ue.Detach
			refDo = func() { rl.severed = true }
		case op.down, op.up:
			do = func() { link.SetDown(op.down) }
			refDo = func() { rl.down = op.down }
		default:
			sends++
			do = func() { send(id, op) }
			refDo = func() { refSend(id, op) }
		}
		if op.armAt != 0 {
			k.At(op.armAt, func() { k.At(op.at, do) })
			rk.At(op.armAt, func() { rk.At(op.at, refDo) })
		} else {
			k.At(op.at, do)
			rk.At(op.at, refDo)
		}
	}
	var gotDrops, wantDrops []uint64
	for _, at := range sc.samples {
		k.At(at, func() { gotDrops = append(gotDrops, link.Dropped) })
		rk.At(at, func() { wantDrops = append(wantDrops, rl.dropped+rl.lost) })
	}
	k.Run()
	rk.Run()

	for i := range gotDrops {
		if gotDrops[i] != wantDrops[i] {
			t.Fatalf("drop sample %d (%v): %d dropped, reference %d", i, sc.samples[i], gotDrops[i], wantDrops[i])
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
	if link.Dropped != rl.dropped+rl.lost || n.DetachDrops != rl.dropped {
		t.Errorf("Link.Dropped %d, DetachDrops %d, reference dropped %d severed + %d down", link.Dropped, n.DetachDrops, rl.dropped, rl.lost)
	}
	if uint64(len(got))+link.Dropped != sends {
		t.Errorf("%d delivered + %d dropped != %d sent", len(got), link.Dropped, sends)
	}
	// Link-down drops are left to the garbage collector; everything else
	// goes back to the pool.
	gets := reg.Counter("simnet_packet_pool_gets_total").Value()
	puts := reg.Counter("simnet_packet_pool_puts_total").Value()
	if gets != puts+rl.lost {
		t.Errorf("packet pool unbalanced: %d gets, %d puts, %d link-down drops", gets, puts, rl.lost)
	}
	if ab, ba := link.ActiveTransfers(); ab != 0 || ba != 0 {
		t.Errorf("ActiveTransfers = %d, %d after the run, want 0, 0", ab, ba)
	}
	if k.Pending() != 0 {
		t.Errorf("%d events still pending: an empty direction kept an event armed", k.Pending())
	}
	out := linkOutcome{
		log: got, dropped: rl.dropped, lost: rl.lost,
		solo:         reg.Counter("simnet_solo_transfers_total").Value(),
		materialised: reg.Counter("simnet_solo_materialised_total").Value(),
		events:       k.Stats().Events,
	}
	// A transfer that stayed solo fired its delivery and nothing else; every
	// other one fired exactly the reference's two events.
	if out.events != rk.Stats().Events-out.solo {
		t.Errorf("fired %d events, want the reference's %d minus %d solo transfers", out.events, rk.Stats().Events, out.solo)
	}
	return out
}

// genArrivals draws a schedule that keeps both directions contended: bursts
// of up to 40 same-instant sends, gaps sized so the offered load hovers
// around the link rate, sizes from control-segment to multi-MTU. Now and then
// the link's extra latency changes, at an arrival instant or between two.
func genArrivals(rng *rand.Rand, n int, bw BitsPerSec) []linkOp {
	out := make([]linkOp, 0, n)
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
			out = append(out, linkOp{at: now, size: size, fromB: rng.Intn(3) == 0})
		}
		// Time the burst needs at line rate, scaled by 0.25..1.5.
		need := time.Duration(float64(sent) * 8 / float64(bw) * float64(time.Second))
		gap := time.Duration(float64(need) * (0.25 + 1.25*rng.Float64()))
		if rng.Intn(40) == 0 {
			extra := time.Duration(rng.Intn(3)) * time.Duration(rng.Intn(2000)) * time.Microsecond
			out = append(out, linkOp{at: now + time.Duration(rng.Int63n(int64(gap)+1)), impair: true, extra: extra})
		}
		now += gap
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
			sc := linkScenario{bw: bw, latency: time.Duration(50+rng.Intn(5000)) * time.Microsecond}
			sc.ops = genArrivals(rng, 6000, bw)
			// Sever the link while the last fifth of the schedule is still
			// arriving: a cohort is serializing and packets are propagating.
			// The detach is staged where the schedule reaches its instant.
			cut := len(sc.ops) * 4 / 5
			detachAt := sc.ops[cut].at + 1
			for sc.ops[cut].at < detachAt {
				cut++
			}
			sc.ops = append(sc.ops[:cut], append([]linkOp{{at: detachAt, detach: true}}, sc.ops[cut:]...)...)
			// The doomed cohort must die at the same instants on both sides,
			// not just in the same number.
			last := sc.ops[len(sc.ops)-1].at
			step := (last - detachAt + 4*sc.latency) / 64
			for i := 1; i <= 80; i++ {
				sc.samples = append(sc.samples, detachAt+sim.Time(i)*step)
			}
			out := runLinkScenario(t, seed, sc)
			if out.dropped == 0 || len(out.log) == 0 {
				t.Fatalf("degenerate run: %d deliveries, %d drops", len(out.log), out.dropped)
			}
			if out.solo == 0 || out.materialised == 0 {
				t.Fatalf("degenerate run: %d solo transfers, %d materialised", out.solo, out.materialised)
			}
		})
	}
}

// Deterministic cases around a lone transfer, each against the same oracle.
// The link is slow and oddly sized on purpose: a 901-byte packet serializes
// in 194 810.77 ns, so at its due instant — the truncated 194 810 — three
// quarters of a nanosecond of it are still on the wire, and a packet that
// arrives then either halves its rate (and delays it by 1 ns) or misses it.
const (
	soloBW   = 37*Mbps + 7
	soloSize = Bytes(901)
)

// soloDue is the serialization time of a lone soloSize packet on soloBW,
// computed as the link computes it.
func soloDue() sim.Time {
	size, bw := soloSize, soloBW // not constants: the division must happen in float64
	return time.Duration(float64(size) / (float64(bw) / 8) * float64(time.Second))
}

func TestSoloTieAtDue(t *testing.T) {
	const start = sim.Time(1000)
	due := start + soloDue()
	lat := 300 * time.Microsecond
	for _, fromB := range []bool{false, true} {
		// The second packet's send was scheduled before the solo's transmit:
		// it runs before the solo's serialization ends, finds it on the wire
		// and shares the last residue with it.
		sc := linkScenario{bw: soloBW, latency: lat, ops: []linkOp{
			{at: start, size: soloSize, fromB: fromB},
			{at: due, size: 300, fromB: fromB},
		}}
		out := runLinkScenario(t, 1, sc)
		if out.materialised != 1 || out.solo != 0 {
			t.Errorf("arrival ordered before the solo's end: %d materialised, %d solo, want 1, 0", out.materialised, out.solo)
		}
		if at := out.at(t, 1); at != due+1+lat {
			t.Errorf("arrival ordered before the solo's end: first packet delivered at %v, want %v (1 ns late)", at, due+1+lat)
		}
		// Scheduled after it: the solo's serialization ended first.
		sc.ops[1].armAt = start + 1
		out = runLinkScenario(t, 1, sc)
		if out.materialised != 0 || out.solo != 2 {
			t.Errorf("arrival ordered after the solo's end: %d materialised, %d solo, want 0, 2", out.materialised, out.solo)
		}
		if at := out.at(t, 1); at != due+lat {
			t.Errorf("arrival ordered after the solo's end: first packet delivered at %v, want %v", at, due+lat)
		}
	}
}

func TestSoloImpair(t *testing.T) {
	const start = sim.Time(1000)
	due := start + soloDue()
	lat, extra := 300*time.Microsecond, 70*time.Microsecond
	for _, tc := range []struct {
		name         string
		at, armAt    sim.Time
		wantExtra    time.Duration
		materialised uint64
	}{
		{"mid-serialization", start + soloDue()/2, 0, extra, 1},
		{"at due, ordered before", due, 0, extra, 1},
		{"at due, ordered after", due, start + 1, 0, 0},
		{"mid-propagation", due + lat/2, 0, 0, 0},
	} {
		sc := linkScenario{bw: soloBW, latency: lat, ops: []linkOp{
			{at: start, size: soloSize},
			{at: start, size: soloSize, fromB: true},
			{at: tc.at, armAt: tc.armAt, impair: true, extra: extra},
			// Same extra latency again: nothing to materialise for.
			{at: due + 2*lat, size: soloSize},
			{at: due + 2*lat + 10, impair: true, extra: extra},
		}}
		out := runLinkScenario(t, 1, sc)
		if out.materialised != 2*tc.materialised {
			t.Errorf("%s: %d materialised, want %d", tc.name, out.materialised, 2*tc.materialised)
		}
		for id := uint64(1); id <= 2; id++ {
			if at := out.at(t, id); at != due+lat+tc.wantExtra {
				t.Errorf("%s: packet %d delivered at %v, want %v", tc.name, id, at, due+lat+tc.wantExtra)
			}
		}
	}
}

func TestSoloDetach(t *testing.T) {
	const start = sim.Time(1000)
	due := start + soloDue()
	lat := 300 * time.Microsecond
	for _, tc := range []struct {
		name         string
		at, armAt    sim.Time
		dies         sim.Time
		materialised uint64
	}{
		{"mid-serialization", start + soloDue()/2, 0, due, 1},
		{"at due, ordered before", due, 0, due, 1},
		{"at due, ordered after", due, start + 1, due + lat, 0},
		{"mid-propagation", due + lat/2, 0, due + lat, 0},
	} {
		sc := linkScenario{bw: soloBW, latency: lat, ops: []linkOp{
			{at: start, size: soloSize},
			{at: start, size: soloSize, fromB: true},
			{at: tc.at, armAt: tc.armAt, detach: true},
			{at: due + 2*lat, size: soloSize}, // into the severed link
		}}
		// A sample staged before the run is ordered before anything armed
		// during it, so the drop shows one nanosecond after it happens.
		sc.samples = []sim.Time{tc.dies, tc.dies + 1, due + lat + 1}
		out := runLinkScenario(t, 1, sc)
		if out.materialised != 2*tc.materialised || out.dropped != 3 || len(out.log) != 0 {
			t.Errorf("%s: %d materialised, %d dropped, %d delivered, want %d, 3, 0",
				tc.name, out.materialised, out.dropped, len(out.log), 2*tc.materialised)
		}
	}
}

func TestSoloSetDown(t *testing.T) {
	const start = sim.Time(1000)
	due := start + soloDue()
	lat := 300 * time.Microsecond
	// The cable is pulled while one solo serializes and put back while the
	// next one propagates: SetDown only gates new sends, so both arrive.
	out := runLinkScenario(t, 1, linkScenario{bw: soloBW, latency: lat, ops: []linkOp{
		{at: start, size: soloSize},
		{at: start + soloDue()/2, down: true},
		{at: start + soloDue()/2 + 1, size: 200}, // lost
		{at: due + lat/2, size: 200},             // lost
		{at: due + 2*lat, up: true},
		{at: due + 2*lat, size: soloSize, fromB: true},
		{at: due + 2*lat + soloDue() + lat/2, down: true},
		{at: due + 2*lat + soloDue() + lat/2, size: 200, fromB: true}, // lost
	}})
	if out.lost != 3 || out.solo != 2 || out.materialised != 0 {
		t.Errorf("%d lost, %d solo, %d materialised, want 3, 2, 0", out.lost, out.solo, out.materialised)
	}
	if at := out.at(t, 1); at != due+lat {
		t.Errorf("first packet delivered at %v, want %v", at, due+lat)
	}
	if at := out.at(t, 6); at != due+2*lat+soloDue()+lat {
		t.Errorf("second solo delivered at %v, want %v", at, due+2*lat+soloDue()+lat)
	}
}

func TestSoloZeroLatency(t *testing.T) {
	const start = sim.Time(1000)
	due := start + soloDue()
	// With no propagation delay the delivery is the end of serialization, and
	// the receiver answers from inside the callback into the very direction
	// the packet came out of (and that answer is answered down the other):
	// the delivered solo must be gone from it by then. A third sender arrives
	// at the delivery instant, ordered before it and after it.
	for _, armAt := range []sim.Time{0, start + 1} {
		out := runLinkScenario(t, 1, linkScenario{bw: soloBW, ops: []linkOp{
			{at: start, size: soloSize},
			{at: due, armAt: armAt, size: 300},
			{at: due + time.Millisecond, size: soloSize, fromB: true},
		}, echo: map[uint64]linkOp{
			1:            {size: 500},
			echoBase + 1: {size: 400, fromB: true},
			3:            {size: 500, fromB: true},
		}})
		wantAt := due + 1 // shared its last residue with the third sender
		if armAt != 0 {
			wantAt = due
		}
		if at := out.at(t, 1); at != wantAt {
			t.Errorf("armAt %v: first packet delivered at %v, want %v", armAt, at, wantAt)
		}
		if len(out.log) != 6 || out.materialised == 0 {
			t.Errorf("armAt %v: %d delivered, %d materialised, want 6, > 0", armAt, len(out.log), out.materialised)
		}
	}
}

// TestActiveTransfersCountsSolo: a lone transfer is counted while it
// serializes although it sits in no cohort and its direction has no event
// armed, and not once it propagates. A clock moved to exactly its due by
// RunUntil finds it ended, whether a kernel or a one-domain ShardGroup moved
// it.
func TestActiveTransfersCountsSolo(t *testing.T) {
	for _, rig := range []struct {
		name string
		new  func() (k *sim.Kernel, runUntil func(sim.Time), run func())
	}{
		{"kernel", func() (*sim.Kernel, func(sim.Time), func()) {
			k := sim.New(1)
			return k, k.RunUntil, k.Run
		}},
		{"group", func() (*sim.Kernel, func(sim.Time), func()) {
			g := sim.NewShardGroup(1, 1, 1, time.Millisecond)
			return g.Kernel(0), g.RunUntil, g.Run
		}},
	} {
		k, runUntil, run := rig.new()
		n := NewNetwork(k)
		var log []delivery
		a := &recorderNode{name: "a", net: n, log: &log}
		b := &recorderNode{name: "b", net: n, log: &log}
		pa, _ := n.Connect(a, b, LinkConfig{Latency: time.Millisecond, Bandwidth: soloBW})
		pkt := n.NewPacket()
		pkt.Kind, pkt.Size = KindDATA, soloSize
		pa.Send(pkt)
		for _, tc := range []struct {
			at   sim.Time
			want int
		}{{0, 1}, {soloDue() - 1, 1}, {soloDue(), 0}, {soloDue() + 1, 0}} {
			runUntil(tc.at)
			if ab, ba := pa.Link().ActiveTransfers(); ab != tc.want || ba != 0 {
				t.Errorf("%s: at %v: ActiveTransfers = %d, %d, want %d, 0", rig.name, tc.at, ab, ba, tc.want)
			}
			if k.Pending() != 1 {
				t.Errorf("%s: at %v: %d events armed, want the delivery alone", rig.name, tc.at, k.Pending())
			}
		}
		run()
		if len(log) != 1 || log[0].at != soloDue()+time.Millisecond {
			t.Errorf("%s: deliveries %v, want one at %v", rig.name, log, soloDue()+time.Millisecond)
		}
	}
}
