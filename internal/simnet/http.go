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
// service time with RespondAfter.
type HTTPAsyncHandler func(c *HTTPServerConn, req *HTTPRequest)

// HTTPServerConn is the server side of one HTTP connection: keep-alive
// request/response without a per-connection process. Responses
// queue FIFO through a single pooled timer thunk, so pipelined requests on
// one connection answer in arrival order.
type HTTPServerConn struct {
	conn    *Conn
	handler HTTPAsyncHandler
	pending []*HTTPResponse
	head    int
	sendFn  func() // lazily bound drain thunk for RespondAfter
}

// ServeHTTPAsync installs a request/response server on port. Each connection
// costs one HTTPServerConn allocation and serves any number of sequential
// requests (keep-alive); a payload that is not an *HTTPRequest is skipped.
func (h *Host) ServeHTTPAsync(port int, handler HTTPAsyncHandler) *Listener {
	return h.ListenAsync(port, func(c *Conn) ConnHandler {
		return &HTTPServerConn{conn: c, handler: handler}
	})
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
	sc.handler(sc, req)
}

// ConnClosed implements ConnHandler.
func (sc *HTTPServerConn) ConnClosed(c *Conn) {}

// Respond sends a response immediately. The response object may be shared
// across connections; it is not mutated (Port.Send clamps a sub-minimum size
// on the packet, not in place).
func (sc *HTTPServerConn) Respond(resp *HTTPResponse) {
	if resp == nil {
		resp = &HTTPResponse{Status: 500, Size: minWireSize}
	}
	sc.conn.Send(resp.Size, resp)
}

// RespondAfter sends a response after d of service time, keeping FIFO order
// with other delayed responses on the connection (constant per-behavior
// delays plus pooled timer events preserve arrival order).
func (sc *HTTPServerConn) RespondAfter(d time.Duration, resp *HTTPResponse) {
	if d <= 0 {
		sc.Respond(resp)
		return
	}
	if sc.sendFn == nil {
		sc.sendFn = sc.sendPending
	}
	sc.pending = append(sc.pending, resp)
	sc.conn.host.net.K.AfterFree(d, sc.sendFn)
}

func (sc *HTTPServerConn) sendPending() {
	resp := sc.pending[sc.head]
	sc.pending[sc.head] = nil
	sc.head++
	if sc.head == len(sc.pending) {
		sc.pending = sc.pending[:0]
		sc.head = 0
	}
	sc.Respond(resp)
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
// until the exchange completes.
func (h *Host) HTTPGet(p *sim.Proc, dst Addr, port int, req *HTTPRequest, timeout time.Duration) (*HTTPResult, error) {
	pr := sim.NewPromise[*HTTPResult](h.net.K)
	h.HTTPGetAsync(dst, port, req, timeout, func(res *HTTPResult, err error) {
		if err != nil {
			pr.Fail(err)
			return
		}
		pr.Resolve(res)
	})
	return pr.Await(p)
}

// httpCall is the client state of one HTTPGetAsync: it is the connection's
// ConnHandler, so the whole measured request costs one allocation beyond the
// connection itself.
type httpCall struct {
	h       *Host
	c       *Conn
	start   sim.Time
	connect time.Duration
	req     *HTTPRequest
	timer   *sim.Event
	done    func(*HTTPResult, error)
	settled bool
}

// HTTPGetAsync performs one measured request from this host — dial, send,
// receive, close — and invokes done inside the completion event. It is the
// moral equivalent of the paper's timecurl.sh: Total spans from starting the
// TCP connection until the response arrives. One deadline covers the whole
// exchange; timeout zero waits forever (on-demand deployment "with
// waiting"). req may be shared between calls: it is never written (Port.Send
// clamps a sub-minimum Size on the packet).
func (h *Host) HTTPGetAsync(dst Addr, port int, req *HTTPRequest, timeout time.Duration, done func(*HTTPResult, error)) {
	call := &httpCall{h: h, start: h.net.K.Now(), req: req, done: done}
	call.c = h.DialAsync(dst, port, call)
	if timeout > 0 {
		call.timer = h.net.K.After(timeout, func() { call.finish(nil, ErrTimeout) })
	}
}

// ConnEstablished implements ConnHandler: send the request.
func (call *httpCall) ConnEstablished(c *Conn, ok bool) {
	if !ok {
		call.finish(nil, ErrConnRefused)
		return
	}
	call.connect = time.Duration(call.h.net.K.Now() - call.start)
	c.Send(call.req.Size, call.req)
}

// ConnMessage implements ConnHandler: the response completes the call.
func (call *httpCall) ConnMessage(c *Conn, payload any) {
	resp, _ := payload.(*HTTPResponse)
	call.finish(&HTTPResult{
		Resp:    resp,
		Connect: call.connect,
		Total:   time.Duration(call.h.net.K.Now() - call.start),
	}, nil)
}

// ConnClosed implements ConnHandler: a close before the response is an error.
func (call *httpCall) ConnClosed(c *Conn) {
	call.finish(nil, ErrConnClosed)
}

func (call *httpCall) finish(res *HTTPResult, err error) {
	if call.settled {
		return
	}
	call.settled = true
	if call.timer != nil {
		call.timer.Cancel()
	}
	if call.c.established {
		call.c.Close()
	} else {
		call.c.Abort() // timed out dialing: the peer may never have seen this connection
	}
	call.done(res, err)
}
