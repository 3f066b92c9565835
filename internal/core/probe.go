package core

import (
	"errors"
	"fmt"

	"transparentedge/internal/cluster"
	"transparentedge/internal/sim"
	"transparentedge/internal/simnet"
)

// ErrProbeTimeout is returned (wrapped) when an instance's port never opens
// within Config.ProbeMaxWait.
var ErrProbeTimeout = errors.New("core: instance port never became ready")

// probeUntilOpen dials the instance from the controller's host until the
// port accepts a connection, or until Config.ProbeMaxWait elapses — a port
// that never opens becomes a deploy error instead of a hung dispatcher
// process holding the client's packet forever. The rounds run as kernel
// callbacks (see prober); the calling process parks once, on the outcome.
func (c *Controller) probeUntilOpen(p *sim.Proc, inst cluster.Instance) error {
	pr := &prober{c: c, inst: inst, deadline: -1, done: sim.NewPromise[struct{}](c.k)}
	if c.cfg.ProbeMaxWait > 0 {
		pr.deadline = c.k.Now() + c.cfg.ProbeMaxWait
	}
	pr.Init(c.k, pr, 0)
	dial(pr)
	_, err := pr.done.Await(p)
	return err
}

// prober is one readiness probing ("the controller continuously tests if the
// respective port is open") as a continuation: it is the ConnHandler of each
// round's dial, and its one timer is the dial timeout while a dial is in
// flight and the ProbeInterval pause between rounds. A round is one SYN
// answered by an RST (refused), by a SYN-ACK (open: the prober closes with a
// FIN and settles), or by nothing before ProbeDialTimeout (the dial is
// aborted, nothing more is sent). The ProbeMaxWait deadline is checked only
// after a failed round, so a dial in flight at the deadline is not cut short.
type prober struct {
	sim.Cont[prober]
	c        *Controller
	inst     cluster.Instance
	deadline sim.Time     // -1: wait forever
	conn     *simnet.Conn // the dial in flight
	done     *sim.Promise[struct{}]
}

func dial(pr *prober) sim.Step[prober] {
	pr.conn = pr.c.probeHost.DialAsync(pr.inst.Addr, pr.inst.Port, pr)
	pr.Sleep(pr.c.cfg.ProbeDialTimeout, dialTimedOut)
	return nil
}

func dialTimedOut(pr *prober) sim.Step[prober] {
	pr.conn.Abort()
	pr.roundFailed()
	return nil
}

// roundFailed ends a refused or timed-out round: give up past the deadline,
// pause and dial again otherwise.
func (pr *prober) roundFailed() {
	cfg := &pr.c.cfg
	if pr.deadline >= 0 && pr.Now() >= pr.deadline {
		pr.Cancel()
		pr.done.Fail(fmt.Errorf("%w: %s on %s (%s:%d) after %v",
			ErrProbeTimeout, pr.inst.Service, pr.inst.Cluster, pr.inst.Addr, pr.inst.Port, cfg.ProbeMaxWait))
		return
	}
	pr.Sleep(cfg.ProbeInterval, dial)
}

// ConnEstablished implements simnet.ConnHandler.
func (pr *prober) ConnEstablished(c *simnet.Conn, ok bool) {
	if !ok {
		pr.roundFailed()
		return
	}
	pr.Cancel()
	c.Close()
	pr.done.Resolve(struct{}{})
}

// ConnMessage implements simnet.ConnHandler; a probe exchanges no payload.
func (pr *prober) ConnMessage(*simnet.Conn, any) {}

// ConnClosed implements simnet.ConnHandler.
func (pr *prober) ConnClosed(*simnet.Conn) {}
