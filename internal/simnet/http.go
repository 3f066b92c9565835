package simnet

import (
	"time"

	"transparentedge/internal/sim"
)

// HTTPRequest is a minimal HTTP-like request message.
type HTTPRequest struct {
	Method string
	Path   string
	Size   Bytes // on-wire request size (headers + body)
	Body   any
}

// HTTPResponse is a minimal HTTP-like response message.
type HTTPResponse struct {
	Status int
	Size   Bytes // on-wire response size
	Body   any
}

// HTTPAsyncHandler serves one request on a server connection. It runs
// synchronously inside the request's delivery event and must not block; model
// service time with RespondAfter. c is valid only during the call: answer
// through c.Respond or c.RespondAfter and keep no reference to c, whose state
// is recycled once its connection has closed with no response pending.
type HTTPAsyncHandler func(c *HTTPServerConn, req *HTTPRequest)

// HTTPServerConn is the server side of one HTTP connection: keep-alive
// request/response without a per-connection process. Responses leave in
// request order, each no earlier than its own due time (HTTP/1.1
// head-of-line blocking), so pipelined requests answer in arrival order
// whatever their service times.
type HTTPServerConn struct {
	srv     *httpServer
	conn    *Conn
	pending []pendingResp // responses not yet sent, in request order from head
	head    int
	timers  int    // RespondAfter events that have not fired yet
	sendFn  func() // sendDue, bound once per pooled object
}

// pendingResp is a queued response and the instant its service ends.
type pendingResp struct {
	due  sim.Time
	resp *HTTPResponse
}

// httpServer is one ServeHTTPAsync listener: the handler and the free list
// of its server connections.
type httpServer struct {
	handler HTTPAsyncHandler
	free    []*HTTPServerConn
}

// ServeHTTPAsync installs a request/response server on port. Each connection
// serves any number of sequential requests (keep-alive); a payload that is
// not an *HTTPRequest is skipped. Server connections are recycled through the
// listener's free list, so a warm exchange allocates nothing.
func (h *Host) ServeHTTPAsync(port int, handler HTTPAsyncHandler) *Listener {
	srv := &httpServer{handler: handler}
	return h.ListenAsync(port, srv.attach)
}

// attach hands the accepted connection c a server connection from the free
// list (or a new one).
func (srv *httpServer) attach(c *Conn) ConnHandler {
	var sc *HTTPServerConn
	if n := len(srv.free); n > 0 {
		sc = srv.free[n-1]
		srv.free[n-1] = nil
		srv.free = srv.free[:n-1]
	} else {
		sc = &HTTPServerConn{srv: srv}
		sc.sendFn = sc.sendDue
	}
	sc.conn = c
	return sc
}

// ConnEstablished implements ConnHandler (server connections are born
// established; nothing to do).
func (sc *HTTPServerConn) ConnEstablished(c *Conn, ok bool) {}

// ConnMessage implements ConnHandler: dispatch one request to the handler.
func (sc *HTTPServerConn) ConnMessage(c *Conn, payload any) {
	req, ok := payload.(*HTTPRequest)
	if !ok {
		return
	}
	sc.srv.handler(sc, req)
}

// ConnClosed implements ConnHandler. With no response in service the
// connection is done and HandlePacket recycles it; otherwise the last
// RespondAfter event does, and whatever it sends goes nowhere (Send on a
// closed connection returns ErrConnClosed).
func (sc *HTTPServerConn) ConnClosed(c *Conn) {
	if sc.timers == 0 {
		c.reap = true
	}
}

// Respond sends a response now, or, behind a response still in service,
// as soon as that one has gone. The response object may be shared across
// connections; it is not mutated (Port.Send clamps a sub-minimum size on the
// packet, not in place).
func (sc *HTTPServerConn) Respond(resp *HTTPResponse) {
	if sc.head < len(sc.pending) {
		sc.pending = append(sc.pending, pendingResp{sc.conn.host.net.K.Now(), resp})
		return
	}
	sc.send(resp)
}

// RespondAfter sends a response after d of service time, and not before
// every earlier response on the connection has gone.
func (sc *HTTPServerConn) RespondAfter(d time.Duration, resp *HTTPResponse) {
	if d <= 0 {
		sc.Respond(resp)
		return
	}
	k := sc.conn.host.net.K
	sc.pending = append(sc.pending, pendingResp{k.Now() + d, resp})
	sc.timers++
	k.AfterFree(d, sc.sendFn)
}

// sendDue is a RespondAfter event: it sends the responses at the head of the
// queue whose service has ended, and recycles the connection if it closed
// while they were in service. Every queued response is due by the time the
// last event fires, so the queue is empty when timers reaches zero.
func (sc *HTTPServerConn) sendDue() {
	sc.timers--
	now := sc.conn.host.net.K.Now()
	for sc.head < len(sc.pending) && sc.pending[sc.head].due <= now {
		resp := sc.pending[sc.head].resp
		sc.pending[sc.head] = pendingResp{}
		sc.head++
		sc.send(resp)
	}
	if sc.head == len(sc.pending) {
		sc.pending, sc.head = sc.pending[:0], 0
	}
	if sc.timers == 0 && sc.conn.closed {
		sc.release()
	}
}

func (sc *HTTPServerConn) send(resp *HTTPResponse) {
	if resp == nil {
		resp = &HTTPResponse{Status: 500, Size: minWireSize}
	}
	sc.conn.Send(resp.Size, resp)
}

// release returns the server connection and its Conn to their free lists.
func (sc *HTTPServerConn) release() {
	sc.conn.host.net.freeConn(sc.conn)
	sc.conn = nil
	sc.srv.free = append(sc.srv.free, sc)
}

// HTTPResult is one client-side measurement, mirroring the timecurl.sh
// fields: connect time (TCP handshake) and total time (handshake through
// last response byte).
type HTTPResult struct {
	Resp    *HTTPResponse
	Connect time.Duration
	Total   time.Duration
}

// HTTPGet is HTTPGetAsync for a caller that is a sim process: it blocks p
// until the exchange completes. The result is the caller's to keep.
func (h *Host) HTTPGet(p *sim.Proc, dst Addr, port int, req *HTTPRequest, timeout time.Duration) (*HTTPResult, error) {
	pr := sim.NewPromise[*HTTPResult](h.net.K)
	h.HTTPGetAsync(dst, port, req, timeout, func(res *HTTPResult, err error) {
		if err != nil {
			pr.Fail(err)
			return
		}
		kept := *res
		pr.Resolve(&kept)
	})
	return pr.Await(p)
}

// httpCall is the client state of one HTTPGetAsync and its connection's
// ConnHandler. Calls are recycled through the network's free list with their
// connection and deadline event, so a warm exchange allocates nothing.
type httpCall struct {
	h       *Host
	c       *Conn
	start   sim.Time
	req     *HTTPRequest
	timer   *sim.Event // the deadline, bound to onTimeout once per pooled call
	done    func(*HTTPResult, error)
	res     HTTPResult
	settled bool
}

// HTTPGetAsync performs one measured request from this host — dial, send,
// receive, close — and invokes done inside the completion event. It is the
// moral equivalent of the paper's timecurl.sh: Total spans from starting the
// TCP connection until the response arrives. One deadline covers the whole
// exchange; timeout zero waits forever (on-demand deployment "with
// waiting"). req may be shared between calls: it is never written (Port.Send
// clamps a sub-minimum Size on the packet). The result handed to done is
// borrowed: it is valid only until done returns, so a caller that keeps it
// copies it.
func (h *Host) HTTPGetAsync(dst Addr, port int, req *HTTPRequest, timeout time.Duration, done func(*HTTPResult, error)) {
	call := h.net.newCall()
	call.h, call.start, call.req, call.done = h, h.net.K.Now(), req, done
	call.c = h.DialAsync(dst, port, call)
	if timeout > 0 {
		h.net.K.Schedule(call.timer, call.start+timeout)
	}
}

// newCall takes a call from the network's free list (or builds one with its
// deadline event).
func (n *Network) newCall() *httpCall {
	if ln := len(n.callPool); ln > 0 {
		call := n.callPool[ln-1]
		n.callPool[ln-1] = nil
		n.callPool = n.callPool[:ln-1]
		return call
	}
	call := &httpCall{}
	call.timer = n.K.NewEvent(call.onTimeout)
	return call
}

// ConnEstablished implements ConnHandler: send the request.
func (call *httpCall) ConnEstablished(c *Conn, ok bool) {
	if !ok {
		call.finish(ErrConnRefused)
		return
	}
	call.res.Connect = time.Duration(call.h.net.K.Now() - call.start)
	c.Send(call.req.Size, call.req)
}

// ConnMessage implements ConnHandler: the response completes the call.
func (call *httpCall) ConnMessage(c *Conn, payload any) {
	call.res.Resp, _ = payload.(*HTTPResponse)
	call.res.Total = time.Duration(call.h.net.K.Now() - call.start)
	call.finish(nil)
}

// ConnClosed implements ConnHandler: a close before the response is an error.
func (call *httpCall) ConnClosed(c *Conn) {
	call.finish(ErrConnClosed)
}

// finish settles the call once: it ends the connection, marks it for
// recycling and hands done the result (borrowed) or the error.
func (call *httpCall) finish(err error) {
	if call.settled {
		return
	}
	call.settled = true
	call.timer.Cancel()
	c := call.c
	if c.established {
		c.Close()
	} else {
		c.Abort() // timed out dialing: the peer may never have seen this connection
	}
	c.reap = true
	if err != nil {
		call.done(nil, err)
		return
	}
	call.done(&call.res, nil)
}

// onTimeout is the deadline event. No connection callback is on the stack,
// so the call recycles itself once done has returned.
func (call *httpCall) onTimeout() {
	call.finish(ErrTimeout)
	call.release()
}

// release returns the call, with its deadline event, and its Conn to the
// network's free lists.
func (call *httpCall) release() {
	n := call.h.net
	n.freeConn(call.c)
	*call = httpCall{timer: call.timer}
	n.callPool = append(n.callPool, call)
}
