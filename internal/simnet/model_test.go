package simnet

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"transparentedge/internal/sim"
)

// The fair-share link used to give every serializing transfer its own kernel
// event and re-arm the whole cohort on every arrival and departure, and the
// stages on either side of a hop — the sending host's stack and a switch's
// pipeline — had an event each. That algorithm is kept here, on its own
// kernel, as the reference the implementation — one event per contended
// direction, one event per lone transfer, stages riding it — must match to
// the nanosecond (DESIGN.md §3): same delivery instants, same delivery order
// across both directions of a link, same drops when the link is severed
// mid-run.

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
	latency time.Duration
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
// packet's ID on (the harness may answer it from inside the callback). A
// packet's ID in a scenario is its Seq: a host stack numbers packets itself.
type recorderNode struct {
	name      string
	net       *Network
	log       *[]delivery
	delivered func(id uint64)
}

func (r *recorderNode) Name() string { return r.name }
func (r *recorderNode) HandlePacket(in *Port, pkt *Packet) {
	id := pkt.Seq
	*r.log = append(*r.log, delivery{id: id, node: r.name, at: r.net.K.Now()})
	r.net.FreePacket(pkt)
	if r.delivered != nil {
		r.delivered(id)
	}
}

// stagedRecorder is a recorderNode with a pipeline stage, as a switch has.
type stagedRecorder struct {
	recorderNode
	stage time.Duration
}

func (r *stagedRecorder) PipelineDelay() time.Duration { return r.stage }

// linkOp is one step of a scenario: a send (size > 0) from one end, or a
// change of the link's state.
type linkOp struct {
	at     sim.Time
	size   Bytes // send: bytes on the wire, transmitted by a, or by b if fromB
	fromB  bool
	detach bool
	move   bool // MoveTo: a's host re-attaches to b over a fresh link
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
	// stack, when set, is the ProcDelay of the host a's sends go out from:
	// they enter its stack stage first, and a Detach or MoveTo is that host's.
	stack time.Duration
	// stage, when set, makes b a StagedNode with that pipeline stage.
	stage time.Duration
	ops   []linkOp
	// echo sends a packet from inside the delivery callback of the packet
	// with the given ID; the echoed packet's ID is echoBase + that ID.
	echo map[uint64]linkOp
	// samples are instants at which the drop counters and the link's
	// ActiveTransfers are compared (drops deliver nothing, so the log alone
	// does not place them in time).
	samples []sim.Time
}

// linkOutcome is what a scenario's case-specific assertions look at.
type linkOutcome struct {
	log          []delivery
	dropped      uint64 // severed-link drops
	lost         uint64 // link-down drops
	unstacked    uint64 // dropped on leaving a's stack while detached
	solo         uint64 // transfers that completed solo
	materialised uint64
	fused        uint64 // sends that left a's stack on their delivery event
	events       uint64
	refEvents    uint64
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

// linkSample is what a sample instant reads on either side.
type linkSample struct {
	downDrops, detachDrops uint64
	ab, ba                 int
}

// runLinkScenario plays sc on the implementation and on the reference model,
// each on its own kernel with everything staged in the same order (so
// same-instant ties break the same way), and asserts that the two agree on
// every delivery — packet, node, nanosecond, order across both directions —
// on the drop counters and the link's ActiveTransfers at every sample, and
// that the implementation ends clean: pool balanced, nothing serializing,
// nothing armed, and the reference's fired events minus one per transfer
// that completed solo, one per packet that reached a staged b, and up to one
// per packet sent through a's stack (the ones that stayed fused).
func runLinkScenario(t *testing.T, seed int64, sc linkScenario) linkOutcome {
	t.Helper()

	// Implementation under test.
	k := sim.New(seed)
	n := NewNetwork(k)
	var got []delivery
	a := &recorderNode{name: "a", net: n, log: &got}
	var b Node
	var bRec *recorderNode
	if sc.stage > 0 {
		sb := &stagedRecorder{recorderNode{name: "b", net: n, log: &got}, sc.stage}
		b, bRec = sb, &sb.recorderNode
	} else {
		bRec = &recorderNode{name: "b", net: n, log: &got}
		b = bRec
	}
	cfg := LinkConfig{Name: "l", Latency: sc.latency, Bandwidth: sc.bw}
	pa, pb := n.Connect(a, b, cfg)
	link := pa.link
	links := []*Link{link}
	ue := NewHost(n, "ue", "10.0.0.1") // a's stack, and the host a Detach or MoveTo moves
	ue.ProcDelay = sc.stack
	ue.SetUplink(pa)
	send := func(id uint64, op linkOp) {
		pkt := n.NewPacket()
		pkt.Kind, pkt.Seq, pkt.Size = KindDATA, id, op.size
		switch {
		case op.fromB:
			pb.Send(pkt)
		case sc.stack > 0:
			ue.sendOut(pkt)
		default:
			pa.Send(pkt)
		}
	}

	// Reference: the cohort re-arm model on its own kernel, with an event per
	// stage.
	rk := sim.New(seed)
	var want []delivery
	rl := &cohortLink{latency: sc.latency}
	var ref [2]*cohortDirection
	refDetached := false
	var unstacked uint64
	var refSend func(id uint64, op linkOp)
	newRefDir := func(l *cohortLink, to string) *cohortDirection {
		d := &cohortDirection{k: rk, link: l, capacity: float64(sc.bw) / 8}
		d.deliver = func(id uint64) {
			handle := func() {
				want = append(want, delivery{id: id, node: to, at: rk.Now()})
				if op, ok := sc.echo[id]; ok {
					refSend(echoBase+id, op)
				}
			}
			if to == "b" && sc.stage > 0 {
				rk.After(sc.stage, handle)
			} else {
				handle()
			}
		}
		return d
	}
	ref[0], ref[1] = newRefDir(rl, "b"), newRefDir(rl, "a")
	origAB, origBA := ref[0], ref[1]
	refSend = func(id uint64, op linkOp) {
		switch {
		case op.fromB:
			ref[1].transmit(id, op.size)
		case sc.stack > 0:
			rk.After(sc.stack, func() {
				if refDetached {
					unstacked++
					return
				}
				ref[0].transmit(id, op.size) // a's way to b when the stage ends
			})
		default:
			ref[0].transmit(id, op.size)
		}
	}
	echo := func(id uint64) {
		if op, ok := sc.echo[id]; ok {
			send(echoBase+id, op)
		}
	}
	a.delivered, bRec.delivered = echo, echo

	sends := uint64(len(sc.echo))
	stackSends := uint64(0)
	for i, op := range sc.ops {
		id, op := uint64(i+1), op
		var do, refDo func()
		switch {
		case op.detach:
			do = ue.Detach
			refDo = func() { rl.severed, refDetached = true, true }
		case op.move:
			do = func() {
				hp, _ := ue.MoveTo(b, cfg)
				links = append(links, hp.link)
			}
			refDo = func() {
				rl.severed = true
				ref[0] = newRefDir(&cohortLink{latency: sc.latency}, "b")
			}
		case op.down, op.up:
			do = func() { link.SetDown(op.down) }
			refDo = func() { rl.down = op.down }
		default:
			sends++
			if !op.fromB && sc.stack > 0 {
				stackSends++
			}
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
	var gotSamples, wantSamples []linkSample
	for _, at := range sc.samples {
		k.At(at, func() {
			ab, ba := link.ActiveTransfers()
			gotSamples = append(gotSamples, linkSample{n.drops, n.detachDrops, ab, ba})
		})
		rk.At(at, func() {
			wantSamples = append(wantSamples, linkSample{rl.lost, rl.dropped + unstacked, len(origAB.active), len(origBA.active)})
		})
	}
	k.Run()
	rk.Run()

	for i := range gotSamples {
		if gotSamples[i] != wantSamples[i] {
			t.Fatalf("sample %d (%v): %+v, reference %+v", i, sc.samples[i], gotSamples[i], wantSamples[i])
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
	if n.drops != rl.lost || n.detachDrops != rl.dropped+unstacked {
		t.Errorf("%d link-down drops, %d detach drops, reference %d down, %d severed + %d on leaving the stack",
			n.drops, n.detachDrops, rl.lost, rl.dropped, unstacked)
	}
	if uint64(len(got))+n.drops+n.detachDrops != sends {
		t.Errorf("%d delivered + %d link-down drops + %d detach drops != %d sent", len(got), n.drops, n.detachDrops, sends)
	}
	// Link-down drops are left to the garbage collector; everything else
	// goes back to the pool.
	if n.poolGets != n.poolPuts+rl.lost {
		t.Errorf("packet pool unbalanced: %d gets, %d puts, %d link-down drops", n.poolGets, n.poolPuts, rl.lost)
	}
	for _, l := range links {
		if ab, ba := l.ActiveTransfers(); ab != 0 || ba != 0 {
			t.Errorf("ActiveTransfers = %d, %d after the run, want 0, 0", ab, ba)
		}
	}
	if k.Pending() != 0 {
		t.Errorf("%d events still pending: an empty direction kept an event armed", k.Pending())
	}
	out := linkOutcome{
		log: got, dropped: rl.dropped, lost: rl.lost, unstacked: unstacked,
		solo:         n.soloDone,
		materialised: n.soloMaterialised,
		events:       k.Stats().Events,
		refEvents:    rk.Stats().Events,
	}
	// A transfer that stayed solo fired its delivery and nothing else, a
	// packet that reached a staged b was handled in its delivery, and a
	// packet that stayed fused left a's stack without an event; every other
	// one fired exactly the reference's events.
	staged := uint64(0)
	if sc.stage > 0 {
		for _, d := range got {
			if d.node == "b" {
				staged++
			}
		}
	}
	saved := int64(out.refEvents) - int64(out.solo) - int64(staged) - int64(out.events)
	if saved < 0 || uint64(saved) > stackSends {
		t.Errorf("fired %d events, want the reference's %d minus %d solo transfers, %d staged deliveries and at most %d fused sends",
			out.events, out.refEvents, out.solo, staged, stackSends)
	}
	out.fused = uint64(max(saved, 0))
	return out
}

// genArrivals draws a schedule that keeps both directions contended: bursts
// of up to 40 same-instant sends, gaps sized so the offered load hovers
// around the link rate, sizes from control-segment to multi-MTU.
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
		now += gap
		if rng.Intn(50) == 0 {
			now += time.Duration(rng.Intn(5000)) * time.Microsecond // let it drain
		}
	}
	return out
}

// TestDirectionMatchesCohortRearm runs long random schedules against the
// reference: bare links, then with a's sends going through a host stack into
// a staged b, where the link is severed by a Detach or a MoveTo.
func TestDirectionMatchesCohortRearm(t *testing.T) {
	for _, variant := range []string{"link", "stages+detach", "stages+move"} {
		for seed := int64(1); seed <= 4; seed++ {
			name := fmt.Sprintf("%s/seed=%d", variant, seed)
			if variant == "link" {
				name = fmt.Sprintf("seed=%d", seed) // the bare link's cases keep their names
			}
			t.Run(name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				bw := []BitsPerSec{Mbps, 37 * Mbps, 100 * Mbps, Gbps}[seed-1] + BitsPerSec(rng.Intn(1000))
				sc := linkScenario{bw: bw, latency: time.Duration(50+rng.Intn(5000)) * time.Microsecond}
				sc.ops = genArrivals(rng, 6000, bw)
				sever := linkOp{detach: true}
				if variant != "link" {
					sc.stack = time.Duration(1+rng.Intn(300)) * time.Microsecond
					sc.stage = time.Duration(1+rng.Intn(50)) * time.Microsecond
					if variant == "stages+move" {
						sever = linkOp{move: true}
					}
				}
				// Sever the link while the last fifth of the schedule is still
				// arriving: a cohort is serializing and packets are propagating.
				// The detach is staged where the schedule reaches its instant.
				cut := len(sc.ops) * 4 / 5
				sever.at = sc.ops[cut].at + 1
				for sc.ops[cut].at < sever.at {
					cut++
				}
				sc.ops = append(sc.ops[:cut], append([]linkOp{sever}, sc.ops[cut:]...)...)
				// The doomed cohort must die at the same instants on both sides,
				// not just in the same number.
				last := sc.ops[len(sc.ops)-1].at
				step := (last - sever.at + 4*sc.latency) / 64
				for i := 1; i <= 80; i++ {
					sc.samples = append(sc.samples, sever.at+sim.Time(i)*step)
				}
				out := runLinkScenario(t, seed, sc)
				if out.dropped == 0 || len(out.log) == 0 {
					t.Fatalf("degenerate run: %d deliveries, %d drops", len(out.log), out.dropped)
				}
				if out.solo == 0 || out.materialised == 0 {
					t.Fatalf("degenerate run: %d solo transfers, %d materialised", out.solo, out.materialised)
				}
				if variant != "link" && out.fused == 0 {
					t.Fatalf("degenerate run: no send stayed fused")
				}
			})
		}
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
			if ab, ba := pa.link.ActiveTransfers(); ab != tc.want || ba != 0 {
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

// Deterministic cases around the stages that ride a hop: a's sends go
// through a 50 µs host stack, and b has a 20 µs pipeline stage. A lone
// soloSize packet sent at start leaves the stack at start+stack, is due off
// the wire stageDue() later, reaches b at arrive() and is processed stage
// after that.
const (
	stackDelay = 50 * time.Microsecond
	stageDelay = 20 * time.Microsecond
	stageLat   = 300 * time.Microsecond
)

func stageScenario(ops ...linkOp) linkScenario {
	return linkScenario{bw: soloBW, latency: stageLat, stack: stackDelay, stage: stageDelay, ops: ops}
}

// stageDue is when a soloSize packet sent at start is off the wire.
func stageDue(start sim.Time) sim.Time { return start + stackDelay + soloDue() }

// arrive is when it reaches b.
func arrive(start sim.Time) sim.Time { return stageDue(start) + stageLat }

func TestStageQuietSend(t *testing.T) {
	const start = sim.Time(1000)
	out := runLinkScenario(t, 1, stageScenario(linkOp{at: start, size: soloSize}))
	// The scenario's own event sends; stack, hop and pipeline are one more.
	if out.fused != 1 || out.solo != 1 || out.events != 2 {
		t.Errorf("%d fused, %d solo, %d events, want 1, 1, 2", out.fused, out.solo, out.events)
	}
	if at := out.at(t, 1); at != arrive(start)+stageDelay {
		t.Errorf("processed at %v, want %v", at, arrive(start)+stageDelay)
	}
}

func TestStageSecondSendUnfuses(t *testing.T) {
	const start = sim.Time(1000)
	// The second send enters the stack while the first is still in it: the
	// first leaves the stack on its own event, as the second does, and the
	// second meets it on the wire.
	out := runLinkScenario(t, 1, stageScenario(
		linkOp{at: start, size: soloSize},
		linkOp{at: start + stackDelay/2, size: 300},
	))
	if out.fused != 0 || out.materialised != 1 {
		t.Errorf("%d fused, %d materialised, want 0, 1", out.fused, out.materialised)
	}
	// The same in one nanosecond: the second send is ordered before the
	// first one's stage ends, and after it.
	for _, armAt := range []sim.Time{0, start + 1} {
		out = runLinkScenario(t, 1, stageScenario(
			linkOp{at: start, size: soloSize},
			linkOp{at: start + stackDelay, armAt: armAt, size: 300},
		))
		if out.materialised != 1 {
			t.Errorf("armAt %v: %d materialised, want 1", armAt, out.materialised)
		}
	}
}

func TestStageEndsAtSoloDue(t *testing.T) {
	const start = sim.Time(1000)
	// The second packet's stage ends at the nanosecond the first is off the
	// wire: the second was sent after the first's stage ended, so the first
	// is gone and both cross alone, fused.
	out := runLinkScenario(t, 1, stageScenario(
		linkOp{at: start, size: soloSize},
		linkOp{at: stageDue(start) - stackDelay, size: soloSize},
	))
	if out.fused != 2 || out.solo != 2 || out.materialised != 0 {
		t.Errorf("%d fused, %d solo, %d materialised, want 2, 2, 0", out.fused, out.solo, out.materialised)
	}
	if at := out.at(t, 2); at != stageDue(start)+soloDue()+stageLat+stageDelay {
		t.Errorf("second packet processed at %v, want %v", at, stageDue(start)+soloDue()+stageLat+stageDelay)
	}
}

func TestStageSever(t *testing.T) {
	const start = sim.Time(1000)
	for _, tc := range []struct {
		name      string
		at, armAt sim.Time
		delivered bool
		dropped   uint64 // on the link
		unstacked uint64 // on leaving the stack
	}{
		{"in the sender stage", start + stackDelay/2, 0, false, 0, 1},
		{"in propagation", arrive(start) - stageLat/2, 0, false, 1, 0},
		{"at arrival, ordered before", arrive(start), 0, false, 1, 0},
		{"at arrival, ordered after", arrive(start), stageDue(start) + 1, true, 0, 0},
		{"in the receiver stage", arrive(start) + stageDelay/2, 0, true, 0, 0},
	} {
		for _, move := range []bool{false, true} {
			name := "Detach " + tc.name
			if move {
				name = "MoveTo " + tc.name
			}
			sc := stageScenario(
				linkOp{at: start, size: soloSize},
				linkOp{at: tc.at, armAt: tc.armAt, detach: !move, move: move},
			)
			// A sample staged before the run is ordered before anything
			// armed during it, so a drop shows one nanosecond after it
			// happens.
			sc.samples = []sim.Time{start + stackDelay, start + stackDelay + 1, arrive(start), arrive(start) + 1, arrive(start) + stageDelay + 1}
			out := runLinkScenario(t, 1, sc)
			wantUnstacked, wantDelivered := tc.unstacked, tc.delivered
			if move && tc.unstacked > 0 {
				// Re-attached before the stage ends: out the new link.
				wantUnstacked, wantDelivered = 0, true
			}
			if out.dropped != tc.dropped || out.unstacked != wantUnstacked || (len(out.log) == 1) != wantDelivered {
				t.Errorf("%s: %d dropped, %d dropped leaving the stack, %d delivered; want %d, %d, delivered %v",
					name, out.dropped, out.unstacked, len(out.log), tc.dropped, wantUnstacked, wantDelivered)
			}
		}
	}
}

func TestStageSetDown(t *testing.T) {
	const start = sim.Time(1000)
	// Pulled while the packet is in the stack: it meets the down link when it
	// leaves the stack. Pulled and put back inside the stack: it goes out.
	// Pulled once it serializes: SetDown only gates new sends.
	for _, tc := range []struct {
		name string
		ops  []linkOp
		lost uint64
	}{
		{"down in the stack", []linkOp{{at: start + stackDelay/2, down: true}}, 1},
		{"down and up in the stack", []linkOp{{at: start + stackDelay/4, down: true}, {at: start + stackDelay/2, up: true}}, 0},
		{"down on the wire", []linkOp{{at: start + stackDelay + soloDue()/2, down: true}}, 0},
		// A second send un-fuses the first, whose event is re-timed to the
		// end of its stage. The cable is pulled at that nanosecond from an
		// event armed inside the stage: the first packet, whose stage end
		// was armed before that, still goes out; the second is lost.
		{"down at the end of a re-timed stage", []linkOp{
			{at: start + stackDelay/2, size: 300},
			{at: start + stackDelay, armAt: start + 1, down: true},
		}, 1},
	} {
		sc := stageScenario(append([]linkOp{{at: start, size: soloSize}}, tc.ops...)...)
		out := runLinkScenario(t, 1, sc)
		sent := uint64(0)
		for _, op := range sc.ops {
			if op.size > 0 {
				sent++
			}
		}
		if out.lost != tc.lost || uint64(len(out.log)) != sent-tc.lost {
			t.Errorf("%s: %d lost, %d delivered, want %d, %d", tc.name, out.lost, len(out.log), tc.lost, sent-tc.lost)
		}
	}
}

func TestStageActiveTransfers(t *testing.T) {
	const start = sim.Time(1000)
	// A packet in the stack is not on the wire: ActiveTransfers counts it from
	// the end of its stage (a sample at that nanosecond is ordered before it)
	// to its due, and it stays fused, because ActiveTransfers only looks.
	sc := stageScenario(linkOp{at: start, size: soloSize}, linkOp{at: start, size: soloSize, fromB: true})
	sc.samples = []sim.Time{start, start + stackDelay/2, start + stackDelay, start + stackDelay + 1,
		stageDue(start) - 1, stageDue(start), stageDue(start) + 1}
	out := runLinkScenario(t, 1, sc)
	if out.fused != 1 {
		t.Errorf("%d fused, want 1", out.fused)
	}
}
