package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"transparentedge/internal/cluster"
	"transparentedge/internal/obs"
	"transparentedge/internal/sim"
	"transparentedge/internal/simnet"
)

// timerLoop is the readiness probing written with plain kernel timers and a
// connection handler, the oracle TestProbeMatchesTimerLoop compares the
// prober's sim.Cont against: dial; on a refusal, or a dial timeout (the dial
// is aborted), give up once past the deadline, else pause and dial again;
// close the connection that is accepted.
type timerLoop struct {
	k        *sim.Kernel
	host     *simnet.Host
	cfg      Config
	inst     cluster.Instance
	deadline sim.Time
	timeout  *sim.Event
	done     *sim.Promise[struct{}]
}

func timerLoopProbe(p *sim.Proc, host *simnet.Host, cfg Config, inst cluster.Instance) error {
	k := host.Network().K
	l := &timerLoop{k: k, host: host, cfg: cfg, inst: inst, deadline: -1, done: sim.NewPromise[struct{}](k)}
	if cfg.ProbeMaxWait > 0 {
		l.deadline = p.Now() + cfg.ProbeMaxWait
	}
	l.dial()
	_, err := l.done.Await(p)
	return err
}

func (l *timerLoop) dial() {
	c := l.host.DialAsync(l.inst.Addr, l.inst.Port, l)
	l.timeout = l.k.After(probeDialTimeout, func() {
		c.Abort()
		l.failed()
	})
}

func (l *timerLoop) failed() {
	if l.deadline >= 0 && l.k.Now() >= l.deadline {
		l.done.Fail(fmt.Errorf("%w: %s on %s (%s:%d) after %v",
			ErrProbeTimeout, l.inst.Service, l.inst.Cluster, l.inst.Addr, l.inst.Port, l.cfg.ProbeMaxWait))
		return
	}
	l.k.After(l.cfg.ProbeInterval, l.dial)
}

func (l *timerLoop) ConnEstablished(c *simnet.Conn, ok bool) {
	l.timeout.Cancel()
	if !ok {
		l.failed()
		return
	}
	c.Close()
	l.done.Resolve(struct{}{})
}

func (l *timerLoop) ConnMessage(*simnet.Conn, any) {}
func (l *timerLoop) ConnClosed(*simnet.Conn)       {}

// probeCase is one randomized probing scenario.
type probeCase struct {
	latency   time.Duration // one way, per link; the RTT is four of them
	procDelay time.Duration // the probing host's stack
	cfg       Config
	opensAt   time.Duration // < 0: the port never opens
	closesAt  time.Duration // < 0: once open it stays open
}

func (pc probeCase) String() string {
	return fmt.Sprintf("latency %v procDelay %v interval %v maxWait %v opens %v closes %v",
		pc.latency, pc.procDelay, pc.cfg.ProbeInterval, pc.cfg.ProbeMaxWait, pc.opensAt, pc.closesAt)
}

// randomProbeCase draws the link latency around probeDialTimeout: the RTT
// is 4*latency + 2*procDelay (the target host has no stack delay).
func randomProbeCase(rng *rand.Rand) probeCase {
	pc := probeCase{opensAt: -1, closesAt: -1}
	if rng.Intn(2) == 0 {
		pc.procDelay = 20 * time.Microsecond
	}
	var rtt time.Duration
	switch rng.Intn(4) {
	case 0: // longer than the dial timeout: every dial times out, answers arrive late
		rtt = probeDialTimeout + time.Duration(1+rng.Intn(500))*time.Millisecond
	case 1: // the answer and the timeout fall in the same instant
		rtt = probeDialTimeout
	default:
		rtt = probeDialTimeout - time.Duration(1+rng.Intn(20))*time.Millisecond
	}
	pc.latency = (rtt - 2*pc.procDelay) / 4
	pc.cfg = Config{}
	pc.cfg.ProbeInterval = time.Duration(1+rng.Intn(40)) * time.Millisecond
	pc.cfg.ProbeMaxWait = time.Duration(400+rng.Intn(3600)) * time.Millisecond
	switch rng.Intn(4) {
	case 0: // never opens
	case 1: // opens, possibly after the deadline
		pc.opensAt = time.Duration(rng.Int63n(int64(pc.cfg.ProbeMaxWait * 3 / 2)))
	case 2: // open from the start
		pc.opensAt = 0
	case 3: // opens and closes again, maybe between two rounds
		pc.opensAt = time.Duration(rng.Int63n(int64(pc.cfg.ProbeMaxWait)))
		pc.closesAt = pc.opensAt + time.Duration(rng.Int63n(int64(3*pc.cfg.ProbeInterval)))
	}
	if pc.opensAt >= 0 && pc.closesAt < 0 && probeDialTimeout > rtt && rng.Intn(4) == 0 {
		pc.cfg.ProbeMaxWait = -1 // wait forever; the port does open and a dial can succeed
	}
	return pc
}

// deadlineCase turns pc into one whose fourth refused round ends in the very
// instant of the ProbeMaxWait deadline, where the probing must give up. The
// latency is capped so that every RST beats the dial timeout, and the exact
// round trip is measured: a refused probing with a 1 ns deadline returns when
// its first RST arrives.
func deadlineCase(pc probeCase, seed int64) probeCase {
	pc.opensAt, pc.closesAt = -1, -1
	pc.latency = min(pc.latency, probeDialTimeout/8)
	pc.cfg.ProbeMaxWait = 1
	rtt := runProbeCase(pc, seed, func(p *sim.Proc, c *Controller, inst cluster.Instance) error {
		return timerLoopProbe(p, c.probeHost, c.cfg, inst)
	}).done
	pc.cfg.ProbeMaxWait = 3*(pc.cfg.ProbeInterval+rtt) + rtt
	return pc
}

// probeOutcome is everything observable about one probing.
type probeOutcome struct {
	done    sim.Time
	err     error
	packets []string // every delivery: instant, node, kind, ports
	conns   int      // connections left on the probing host
	pending int      // live kernel events once the run bound is reached
}

// runProbeCase builds the case's world on its own kernel and probes with
// probe, which is handed the controller whose host and config to use.
func runProbeCase(pc probeCase, seed int64, probe func(*sim.Proc, *Controller, cluster.Instance) error) probeOutcome {
	k := sim.New(seed)
	n := simnet.NewNetwork(k)
	egs := simnet.NewHost(n, "egs", "10.0.0.10")
	egs.ProcDelay = pc.procDelay
	target := simnet.NewHost(n, "edge", "10.0.2.1")
	r := simnet.NewRouter(n, "r")
	link := simnet.LinkConfig{Latency: pc.latency, Bandwidth: simnet.Gbps}
	_, re := egs.AttachTo(r, link)
	_, rt := target.AttachTo(r, link)
	r.AddRoute(egs.IP(), re)
	r.AddRoute(target.IP(), rt)
	ctrl := New(k, egs, pc.cfg)

	var out probeOutcome
	n.PktTrace = func(_ sim.Time, where string, pkt *simnet.Packet) {
		out.packets = append(out.packets, fmt.Sprintf("%d %s %v %d->%d", k.Now(), where, pkt.Kind, pkt.SrcPort, pkt.DstPort))
	}
	const port = 32000
	if pc.opensAt >= 0 {
		k.After(pc.opensAt, func() {
			lis := target.ServeHTTPAsync(port, func(c *simnet.HTTPServerConn, _ *simnet.HTTPRequest) {
				c.Respond(&simnet.HTTPResponse{Status: 200})
			})
			if pc.closesAt >= 0 {
				k.After(pc.closesAt-pc.opensAt, lis.Close)
			}
		})
	}
	inst := cluster.Instance{Service: "svc", Cluster: "fc0", Addr: target.IP(), Port: port}
	out.done = -1
	k.Go("deployer", func(p *sim.Proc) {
		out.err = probe(p, ctrl, inst)
		out.done = p.Now()
	})
	k.RunUntil(time.Minute)
	out.conns = egs.OpenConns()
	out.pending = k.Pending()
	return out
}

// TestProbeMatchesTimerLoop: the prober is indistinguishable from the timer
// loop — same completion instant to the nanosecond, same error,
// same packets at the same instants with the same ephemeral ports, nothing
// left behind on the probing host or in the kernel.
func TestProbeMatchesTimerLoop(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 64; i++ {
			pc := randomProbeCase(rng)
			if i >= 60 {
				pc = deadlineCase(pc, seed)
			}
			want := runProbeCase(pc, seed, func(p *sim.Proc, c *Controller, inst cluster.Instance) error {
				return timerLoopProbe(p, c.probeHost, c.cfg, inst)
			})
			got := runProbeCase(pc, seed, func(p *sim.Proc, c *Controller, inst cluster.Instance) error {
				return c.probeUntilOpen(p, inst)
			})
			if want.done < 0 {
				t.Fatalf("seed %d case %d (%v): the reference loop never returned", seed, i, pc)
			}
			if got.done != want.done {
				t.Errorf("seed %d case %d (%v): done at %d, reference at %d", seed, i, pc, got.done, want.done)
			}
			if errors.Is(got.err, ErrProbeTimeout) != errors.Is(want.err, ErrProbeTimeout) || fmt.Sprint(got.err) != fmt.Sprint(want.err) {
				t.Errorf("seed %d case %d (%v): err %v, reference %v", seed, i, pc, got.err, want.err)
			}
			if !reflect.DeepEqual(got.packets, want.packets) {
				t.Errorf("seed %d case %d (%v): %d packet deliveries, reference %d; first difference: %s",
					seed, i, pc, len(got.packets), len(want.packets), firstDiff(got.packets, want.packets))
			}
			if got.conns != 0 || want.conns != 0 {
				t.Errorf("seed %d case %d (%v): connections left on the probing host: %d, reference %d, want 0",
					seed, i, pc, got.conns, want.conns)
			}
			if got.pending != 0 {
				t.Errorf("seed %d case %d (%v): %d kernel events still pending, want 0", seed, i, pc, got.pending)
			}
		}
	}
}

func firstDiff(got, want []string) string {
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			return fmt.Sprintf("#%d %q, reference %q", i, got[i], want[i])
		}
	}
	return fmt.Sprintf("lengths %d and %d", len(got), len(want))
}

// TestAllocsProbeRound pins what one refused probe round allocates: nothing.
// The connection goes back to the network's free list once its refusal has
// been handled, and there is no channel, promise, timer or closure per round,
// which is what a process-mode Dial costs.
func TestAllocsProbeRound(t *testing.T) {
	const latency = 50 * time.Microsecond
	cfg := Config{}
	cfg.ProbeMaxWait = -1 // the port never opens: probe until the test stops running the kernel
	k := sim.New(1)
	n := simnet.NewNetwork(k)
	egs := simnet.NewHost(n, "egs", "10.0.0.10")
	target := simnet.NewHost(n, "edge", "10.0.2.1")
	hp, tp := n.Connect(egs, target, simnet.LinkConfig{Latency: latency, Bandwidth: simnet.Gbps})
	egs.SetUplink(hp)
	target.SetUplink(tp)
	ctrl := New(k, egs, cfg)
	k.Go("deployer", func(p *sim.Proc) {
		_ = ctrl.probeUntilOpen(p, cluster.Instance{Service: "svc", Cluster: "fc0", Addr: target.IP(), Port: 32000})
	})
	// One round is the pause plus the refused dial's round trip.
	round := ctrl.cfg.ProbeInterval + 2*latency
	delivered := 0
	n.PktTrace = func(sim.Time, string, *simnet.Packet) { delivered++ }
	k.RunUntil(100 * round) // warm the packet, transfer and event pools
	sent := delivered
	avg := testing.AllocsPerRun(200, func() { k.RunUntil(k.Now() + round) })
	// AllocsPerRun runs once extra to warm up; each round delivers a SYN and
	// the RST made of it.
	if got := delivered - sent; got != 2*201 {
		t.Fatalf("%d packets delivered over 201 round lengths, want a SYN and an RST each", got)
	}
	if avg != 0 {
		t.Errorf("%.2f allocs per refused probe round, want 0", avg)
	}
}

// TestProbeRecyclesConns: every connection a probe dials goes back to the
// network's free list exactly once — after a refused round (the RST), after a
// timed-out round whose SYN-ACK comes back after the Abort, and after the open
// round the prober closes. Before every packet delivery no Conn is on the free
// list twice or both on it and in a host's connection table, either of which
// would hand one Conn to two holders; between rounds every Conn the run made
// is in one of the two. The free list and the tables (each a map of chains)
// are simnet's unexported state, read through reflect.
func TestProbeRecyclesConns(t *testing.T) {
	const latency = 50 * time.Microsecond
	cfg := Config{}
	cfg.ProbeMaxWait = -1
	k := sim.New(1)
	n := simnet.NewNetwork(k)
	egs := simnet.NewHost(n, "egs", "10.0.0.10")
	target := simnet.NewHost(n, "edge", "10.0.2.1")
	hp, tp := n.Connect(egs, target, simnet.LinkConfig{Latency: latency, Bandwidth: simnet.Gbps})
	egs.SetUplink(hp)
	target.SetUplink(tp)
	ctrl := New(k, egs, cfg)
	respond := func(c *simnet.HTTPServerConn, _ *simnet.HTTPRequest) { c.Respond(&simnet.HTTPResponse{Status: 200}) }

	field := func(v any, name string) reflect.Value { return reflect.ValueOf(v).Elem().FieldByName(name) }
	free := func() []uintptr {
		pool := field(n, "connPool")
		out := make([]uintptr, pool.Len())
		for i := range out {
			out[i] = pool.Index(i).Pointer()
		}
		return out
	}
	held := func() []uintptr {
		var out []uintptr
		for _, h := range []*simnet.Host{egs, target} {
			for it := field(h, "conns").MapRange(); it.Next(); {
				for c := it.Value(); !c.IsNil(); c = c.Elem().FieldByName("samePorts") {
					out = append(out, c.Pointer())
				}
			}
		}
		return out
	}
	exclusive := func(when string) {
		seen := map[uintptr]bool{}
		for _, c := range free() {
			if seen[c] {
				t.Fatalf("%s: a Conn is on the free list twice", when)
			}
			seen[c] = true
		}
		for _, c := range held() {
			if seen[c] {
				t.Fatalf("%s: a Conn is on the free list and in a host's table", when)
			}
		}
	}
	var total int
	accounted := func(when string) {
		exclusive(when)
		if got := len(free()) + len(held()); got != total {
			t.Errorf("%s: %d Conns on the free list or in a table, want all %d", when, got, total)
		}
	}

	// Fill the free list with three exchanges' connections, so no round below
	// has to make one.
	target.ServeHTTPAsync(80, respond)
	for i := 0; i < 3; i++ {
		egs.HTTPGetAsync(target.IP(), 80, &simnet.HTTPRequest{}, 0, func(*simnet.HTTPResult, error) {})
	}
	k.Run()
	total = len(free())
	if total != 6 || len(held()) != 0 {
		t.Fatalf("after three exchanges %d Conns are free and %d held, want 6 and 0", total, len(held()))
	}
	lateSYNACK := false
	n.PktTrace = func(_ sim.Time, where string, pkt *simnet.Packet) {
		exclusive(fmt.Sprintf("at %v, %v to %s", time.Duration(k.Now()), pkt.Kind, where))
		if where == "egs" && pkt.Kind == simnet.KindSYNACK && egs.OpenConns() == 0 {
			lateSYNACK = true
		}
	}

	var probeErr error
	done := false
	start := k.Now()
	k.Go("deployer", func(p *sim.Proc) {
		probeErr = ctrl.probeUntilOpen(p, cluster.Instance{Service: "svc", Cluster: "fc0", Addr: target.IP(), Port: 32000})
		done = true
	})
	// The port is closed: each round is refused. Check mid-pause, with no
	// dial in flight.
	round := ctrl.cfg.ProbeInterval + 2*latency
	for i := 1; i <= 3; i++ {
		k.RunUntil(start + sim.Time(i)*round - ctrl.cfg.ProbeInterval/2)
		accounted(fmt.Sprintf("after refused round %d", i))
	}
	// The port opens, but the answer leaves the target only after the dial
	// timeout: the prober aborts, and the SYN-ACK finds no connection.
	dialAt := start + 3*round
	target.ProcDelay = probeDialTimeout + ctrl.cfg.ProbeInterval/4
	target.ServeHTTPAsync(32000, respond)
	k.RunUntil(dialAt + probeDialTimeout + ctrl.cfg.ProbeInterval/2)
	if !lateSYNACK {
		t.Fatal("no SYN-ACK reached the prober after its Abort")
	}
	if egs.OpenConns() != 0 || target.OpenConns() != 1 {
		t.Fatalf("after the timed-out round %d and %d connections are open, want 0 on the prober and the target's half-open one",
			egs.OpenConns(), target.OpenConns())
	}
	accounted("after the timed-out round")
	// The next round is answered in time and the prober closes it.
	target.ProcDelay = 0
	k.RunUntil(dialAt + 2*probeDialTimeout)
	if !done || probeErr != nil {
		t.Fatalf("probing done %v, err %v; want the open round to end it", done, probeErr)
	}
	accounted("after the open round")
}

// TestStateQueryInstants: the dispatcher's state query costs one
// StateQueryLatency however many clusters answer it, n of them under
// SerialStateQueries, and hands the scheduler the clusters in the same order
// either way.
func TestStateQueryInstants(t *testing.T) {
	const L = stateQueryLatency
	for n := 2; n <= 4; n++ {
		for _, serial := range []bool{false, true} {
			cfg := Config{}
			cfg.SerialStateQueries = serial
			tr := obs.NewTracer(0)
			cfg.Trace = tr
			rg := newHotpathRig(t, n, 1, cfg)
			var order []string
			var took time.Duration
			rg.k.Go("driver", func(p *sim.Proc) {
				t0 := p.Now()
				d := &dispatchRec{c: rg.ctrl, svc: rg.svc, fk: FlowKey{Client: rg.clients[0].IP()}}
				st := rg.ctrl.buildState(p, d)
				took = time.Duration(p.Now() - t0)
				for _, ci := range st.Clusters {
					order = append(order, ci.Cluster.Name())
				}
				if _, err := rg.clients[0].HTTPGet(p, "203.0.113.10", 80, &simnet.HTTPRequest{}, 0); err != nil {
					t.Errorf("request: %v", err)
				}
			})
			rg.k.RunUntil(time.Minute)
			want := L
			if serial {
				want = time.Duration(n) * L
			}
			if took != want {
				t.Errorf("%d clusters, serial %v: buildState took %v, want %v", n, serial, took, want)
			}
			var wantOrder []string
			for i := 0; i < n; i++ {
				wantOrder = append(wantOrder, fmt.Sprintf("fc%d", i))
			}
			if !reflect.DeepEqual(order, wantOrder) {
				t.Errorf("%d clusters, serial %v: cluster order %v, want %v", n, serial, order, wantOrder)
			}
			found := false
			for _, s := range tr.Spans() {
				if s.Name != "state_query" {
					continue
				}
				found = true
				if got := s.End - s.Start; got != want {
					t.Errorf("%d clusters, serial %v: state_query span lasts %v, want %v", n, serial, got, want)
				}
				if wantDetail := fmt.Sprintf("%d clusters", n); s.Detail != wantDetail {
					t.Errorf("state_query detail %q, want %q", s.Detail, wantDetail)
				}
			}
			if !found {
				t.Errorf("%d clusters, serial %v: no state_query span", n, serial)
			}
		}
	}
}
