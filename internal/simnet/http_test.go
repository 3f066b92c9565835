package simnet

import (
	"errors"
	"testing"
	"time"

	"transparentedge/internal/sim"
)

func TestHTTPKeepAlive(t *testing.T) {
	// One connection serves any number of sequential requests.
	k, _, a, b := pair(t, LinkConfig{Latency: time.Millisecond})
	served := 0
	b.ServeHTTPAsync(80, func(c *HTTPServerConn, req *HTTPRequest) {
		served++
		c.Respond(&HTTPResponse{Status: 200, Size: KiB, Body: served})
	})
	var bodies []any
	k.Go("client", func(p *sim.Proc) {
		c, err := a.Dial(p, b.IP(), 80, 0)
		if err != nil {
			t.Error(err)
			return
		}
		defer c.Close()
		for i := 0; i < 3; i++ {
			if err := c.Send(minWireSize, &HTTPRequest{Method: "GET", Path: "/"}); err != nil {
				t.Error(err)
				return
			}
			resp, err := c.Recv(p, 0)
			if err != nil {
				t.Error(err)
				return
			}
			bodies = append(bodies, resp.(*HTTPResponse).Body)
		}
	})
	k.Run()
	if served != 3 || len(bodies) != 3 {
		t.Fatalf("served %d, got %d responses", served, len(bodies))
	}
	if bodies[0] != 1 || bodies[1] != 2 || bodies[2] != 3 {
		t.Fatalf("bodies = %v, want [1 2 3]", bodies)
	}
}

func TestHTTPNilResponseIs500(t *testing.T) {
	k, _, a, b := pair(t, LinkConfig{Latency: time.Millisecond})
	b.ServeHTTPAsync(80, func(c *HTTPServerConn, req *HTTPRequest) {
		c.Respond(nil)
	})
	var res *HTTPResult
	var err error
	k.Go("client", func(p *sim.Proc) {
		res, err = a.HTTPGet(p, b.IP(), 80, &HTTPRequest{Method: "GET", Path: "/"}, 0)
	})
	k.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Resp == nil || res.Resp.Status != 500 {
		t.Fatalf("resp = %+v, want synthesized 500", res.Resp)
	}
}

func TestHTTPIgnoresForeignPayload(t *testing.T) {
	// A non-HTTPRequest payload on the server connection is skipped, not
	// answered — the next real request still gets its response.
	k, _, a, b := pair(t, LinkConfig{Latency: time.Millisecond})
	b.ServeHTTPAsync(80, func(c *HTTPServerConn, req *HTTPRequest) {
		c.Respond(&HTTPResponse{Status: 200, Size: minWireSize})
	})
	var status int
	k.Go("client", func(p *sim.Proc) {
		c, err := a.Dial(p, b.IP(), 80, 0)
		if err != nil {
			t.Error(err)
			return
		}
		defer c.Close()
		if err := c.Send(minWireSize, "not an http request"); err != nil {
			t.Error(err)
			return
		}
		if err := c.Send(minWireSize, &HTTPRequest{Method: "GET", Path: "/"}); err != nil {
			t.Error(err)
			return
		}
		resp, err := c.Recv(p, 0)
		if err != nil {
			t.Error(err)
			return
		}
		status = resp.(*HTTPResponse).Status
	})
	k.Run()
	if status != 200 {
		t.Fatalf("status = %d, want 200 (foreign payload must be skipped)", status)
	}
}

// exchange runs one request through the named entry point to completion.
func exchange(k *sim.Kernel, entry string, from *Host, dst Addr, req *HTTPRequest, timeout time.Duration) (res *HTTPResult, err error) {
	if entry == "HTTPGet" {
		k.Go("client", func(p *sim.Proc) { res, err = from.HTTPGet(p, dst, 80, req, timeout) })
	} else {
		from.HTTPGetAsync(dst, 80, req, timeout, func(r *HTTPResult, e error) { res, err = r, e })
	}
	k.Run()
	return res, err
}

var httpEntryPoints = []string{"HTTPGet", "HTTPGetAsync"}

func TestHTTPSizeClamping(t *testing.T) {
	// Tiny request/response sizes are clamped to the minimum wire size, so
	// round-trip timing never falls below the control-segment cost — on the
	// packet only: the caller's request may be shared between calls (a
	// catalog.Request is) and is never written.
	for _, entry := range httpEntryPoints {
		k, n, a, b := pair(t, LinkConfig{Latency: time.Millisecond, Bandwidth: 8 * Mbps})
		var wire []Bytes
		n.PktTrace = func(_ string, pkt *Packet) {
			if pkt.Kind == KindDATA {
				wire = append(wire, pkt.Size)
			}
		}
		b.ServeHTTPAsync(80, func(c *HTTPServerConn, req *HTTPRequest) {
			c.Respond(&HTTPResponse{Status: 200, Size: 1})
		})
		req := &HTTPRequest{Method: "GET", Path: "/", Size: 1}
		res, err := exchange(k, entry, a, b.IP(), req, 0)
		if err != nil {
			t.Fatalf("%s: %v", entry, err)
		}
		if len(wire) != 4 { // request and response, two hops each
			t.Fatalf("%s: %d DATA deliveries, want 4", entry, len(wire))
		}
		for _, size := range wire {
			if size != minWireSize {
				t.Errorf("%s: DATA segment of %d bytes on the wire, want clamp to %d", entry, size, minWireSize)
			}
		}
		if req.Size != 1 {
			t.Errorf("%s: caller's request Size = %d after the call, want it left at 1", entry, req.Size)
		}
		if res.Resp.Size != 1 {
			t.Errorf("%s: response object Size = %d, want it left at 1", entry, res.Resp.Size)
		}
		if res.Total <= res.Connect {
			t.Errorf("%s: Total %v must exceed Connect %v", entry, res.Total, res.Connect)
		}
	}
}

func TestHTTPDialTimeoutSendsNoFIN(t *testing.T) {
	// A deadline that expires before the SYN-ACK is back ends the call with
	// Abort, not Close: the only packet the client ever sends is its SYN, and
	// it keeps no connection.
	for _, entry := range httpEntryPoints {
		k, n, a, b := pair(t, LinkConfig{Latency: 10 * time.Millisecond}) // RTT 40 ms
		var fromA []PacketKind
		n.PktTrace = func(where string, pkt *Packet) {
			if pkt.SrcIP == a.IP() && where == "b" {
				fromA = append(fromA, pkt.Kind)
			}
		}
		b.ServeHTTPAsync(80, func(c *HTTPServerConn, req *HTTPRequest) {
			c.Respond(&HTTPResponse{Status: 200})
		})
		// 25 ms: the SYN has reached b, the SYN-ACK has not reached a.
		_, err := exchange(k, entry, a, b.IP(), &HTTPRequest{Method: "GET", Path: "/"}, 25*time.Millisecond)
		if !errors.Is(err, ErrTimeout) {
			t.Errorf("%s: err = %v, want ErrTimeout", entry, err)
		}
		if len(fromA) != 1 || fromA[0] != KindSYN {
			t.Errorf("%s: b received %v from the client, want the SYN alone", entry, fromA)
		}
		if a.OpenConns() != 0 {
			t.Errorf("%s: %d connections left on the client, want 0", entry, a.OpenConns())
		}
	}
}

func TestHTTPGetTimeoutDuringResponse(t *testing.T) {
	// The handler sleeps past the deadline: HTTPGet must give up with
	// ErrTimeout even though the connection established fine.
	k, _, a, b := pair(t, LinkConfig{Latency: time.Millisecond})
	b.ServeHTTPAsync(80, func(c *HTTPServerConn, req *HTTPRequest) {
		c.RespondAfter(time.Second, &HTTPResponse{Status: 200})
	})
	var err error
	k.Go("client", func(p *sim.Proc) {
		_, err = a.HTTPGet(p, b.IP(), 80, &HTTPRequest{Method: "GET", Path: "/"}, 100*time.Millisecond)
	})
	k.Run()
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestHTTPGetTimeoutConsumedByDial(t *testing.T) {
	// When the handshake alone eats the whole budget, HTTPGet reports
	// ErrTimeout instead of waiting forever on the response.
	k, _, a, b := pair(t, LinkConfig{Latency: 30 * time.Millisecond})
	b.ServeHTTPAsync(80, func(c *HTTPServerConn, req *HTTPRequest) {
		c.Respond(&HTTPResponse{Status: 200})
	})
	var err error
	k.Go("client", func(p *sim.Proc) {
		// Handshake costs 4 hops x 30 ms = 120 ms; budget is 121 ms, so
		// the deadline expires between connect and response.
		_, err = a.HTTPGet(p, b.IP(), 80, &HTTPRequest{Method: "GET", Path: "/"}, 121*time.Millisecond)
	})
	k.Run()
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestHTTPGetRefused(t *testing.T) {
	k, _, a, b := pair(t, LinkConfig{Latency: time.Millisecond})
	var err error
	k.Go("client", func(p *sim.Proc) {
		_, err = a.HTTPGet(p, b.IP(), 80, &HTTPRequest{Method: "GET", Path: "/"}, 0)
	})
	k.Run()
	if !errors.Is(err, ErrConnRefused) {
		t.Fatalf("err = %v, want ErrConnRefused", err)
	}
}
