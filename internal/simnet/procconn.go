package simnet

import (
	"fmt"
	"time"

	"transparentedge/internal/sim"
)

// procConn is the ConnHandler behind the blocking calls: payloads queue on a
// channel for Recv, the dial outcome resolves a promise for Dial. It is the
// whole process-style surface; nothing outside tests drives a Conn through it.
type procConn struct {
	rx    *sim.Chan[any]
	estab *sim.Promise[bool] // nil on accepted connections
}

// recvTimedOut is the queue entry a Recv timeout leaves for its parked caller.
type recvTimedOut struct{}

func (pc *procConn) ConnEstablished(_ *Conn, ok bool) { pc.estab.Resolve(ok) }
func (pc *procConn) ConnMessage(_ *Conn, payload any) { pc.rx.Send(payload) }
func (pc *procConn) ConnClosed(*Conn)                 { pc.rx.Close() }

// Listen opens a listener whose connections are read with Recv; accept runs
// in a fresh sim process per inbound connection.
func (h *Host) Listen(port int, accept func(p *sim.Proc, c *Conn)) *Listener {
	name := fmt.Sprintf("%s:accept:%d", h.name, port)
	return h.ListenAsync(port, func(c *Conn) ConnHandler {
		h.net.K.Go(name, func(p *sim.Proc) { accept(p, c) })
		return &procConn{rx: sim.NewChan[any](h.net.K)}
	})
}

// Dial opens a connection and blocks the process until it is established,
// refused, or timed out (zero timeout waits forever). A timed-out dial is
// aborted: nothing but the SYN was sent.
func (h *Host) Dial(p *sim.Proc, dst Addr, port int, timeout time.Duration) (*Conn, error) {
	pc := &procConn{rx: sim.NewChan[any](h.net.K), estab: sim.NewPromise[bool](h.net.K)}
	c := h.DialAsync(dst, port, pc)
	if timeout > 0 {
		timer := h.net.K.After(timeout, func() {
			if !pc.estab.Done() {
				c.Abort()
				pc.estab.Fail(ErrTimeout)
			}
		})
		defer timer.Cancel()
	}
	ok, err := pc.estab.Await(p)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, ErrConnRefused
	}
	return c, nil
}

// Recv blocks until a message arrives, the connection closes, or the timeout
// elapses (zero waits forever). It panics on a Conn not made by Dial or Listen.
func (c *Conn) Recv(p *sim.Proc, timeout time.Duration) (any, error) {
	pc := c.handler.(*procConn)
	if timeout > 0 {
		// An empty open queue means the caller is still parked below: the
		// timeout wakes it as one more queue entry. A message delivered in
		// the same instant wins, and none is ever lost.
		timer := c.host.net.K.After(timeout, func() {
			if !c.closed && pc.rx.Len() == 0 {
				pc.rx.Send(recvTimedOut{})
			}
		})
		defer timer.Cancel()
	}
	v, ok := pc.rx.Recv(p)
	if !ok {
		return nil, ErrConnClosed
	}
	if _, timedOut := v.(recvTimedOut); timedOut {
		return nil, ErrTimeout
	}
	return v, nil
}
