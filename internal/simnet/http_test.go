package simnet

import (
	"errors"
	"fmt"
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
	var client recorder
	get := func(c *Conn) {
		if err := c.Send(minWireSize, &HTTPRequest{Method: "GET", Path: "/"}); err != nil {
			t.Error(err)
		}
	}
	client.open = get
	client.reply = func(c *Conn) {
		if len(client.msgs) < 3 {
			get(c)
		} else {
			c.Close()
		}
	}
	a.DialAsync(b.IP(), 80, &client)
	k.Run()
	var bodies []any
	for _, v := range client.msgs {
		bodies = append(bodies, v.(*HTTPResponse).Body)
	}
	if served != 3 || len(bodies) != 3 {
		t.Fatalf("served %d, got %d responses", served, len(bodies))
	}
	if bodies[0] != 1 || bodies[1] != 2 || bodies[2] != 3 {
		t.Fatalf("bodies = %v, want [1 2 3]", bodies)
	}
}

// TestHTTPPipelinedResponsesInRequestOrder: requests pipelined on one
// connection are answered in request order, each response no earlier than
// its own service time ends (HTTP/1.1 head-of-line), whatever the mix of
// RespondAfter delays and immediate Responds. The path names the delay. Over
// pair's two 1 ms hops the requests reach the server at 6 ms and a response
// sent at s reaches the client at s+2 ms.
func TestHTTPPipelinedResponsesInRequestOrder(t *testing.T) {
	type arrival struct {
		path string
		at   sim.Time
	}
	ms := func(n int) sim.Time { return sim.Time(n) * time.Millisecond }
	delays := map[string]time.Duration{"/now": 0, "/fast": ms(1), "/ten": ms(10), "/slow": ms(50)}
	for _, tc := range []struct {
		name  string
		paths []string
		want  []arrival
	}{
		{"slow then fast", []string{"/slow", "/fast"}, []arrival{{"/slow", ms(58)}, {"/fast", ms(58)}}},
		{"fast then slow", []string{"/fast", "/slow"}, []arrival{{"/fast", ms(9)}, {"/slow", ms(58)}}},
		{"immediate behind delayed", []string{"/slow", "/now"}, []arrival{{"/slow", ms(58)}, {"/now", ms(58)}}},
		{"equal delays", []string{"/ten", "/ten"}, []arrival{{"/ten", ms(18)}, {"/ten", ms(18)}}},
		{"immediate between", []string{"/ten", "/now", "/fast"},
			[]arrival{{"/ten", ms(18)}, {"/now", ms(18)}, {"/fast", ms(18)}}},
	} {
		k, _, a, b := pair(t, LinkConfig{Latency: time.Millisecond})
		b.ServeHTTPAsync(80, func(c *HTTPServerConn, req *HTTPRequest) {
			if d := delays[req.Path]; d > 0 {
				c.RespondAfter(d, &HTTPResponse{Status: 200, Body: req.Path})
			} else {
				c.Respond(&HTTPResponse{Status: 200, Body: req.Path})
			}
		})
		var client recorder
		client.open = func(c *Conn) {
			for _, path := range tc.paths {
				c.Send(minWireSize, &HTTPRequest{Method: "GET", Path: path})
			}
		}
		client.reply = func(c *Conn) {
			if len(client.msgs) == len(tc.paths) {
				c.Close()
			}
		}
		a.DialAsync(b.IP(), 80, &client)
		k.Run()
		var got []arrival
		for i, v := range client.msgs {
			got = append(got, arrival{v.(*HTTPResponse).Body.(string), client.at[i]})
		}
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("%s: responses %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestHTTPServerConnOutlivesClientTimeout: a client that gives up while its
// response is still in service closes the connection, but the server
// connection stays out of the free list until that response has drained —
// into a closed connection, going nowhere — and only then serves anyone else.
func TestHTTPServerConnOutlivesClientTimeout(t *testing.T) {
	k, n, a, b := pair(t, LinkConfig{Latency: time.Millisecond})
	var served []*HTTPServerConn
	b.ServeHTTPAsync(80, func(c *HTTPServerConn, req *HTTPRequest) {
		served = append(served, c)
		if req.Path == "/slow" {
			c.RespondAfter(100*time.Millisecond, &HTTPResponse{Status: 200})
			return
		}
		c.Respond(&HTTPResponse{Status: 200})
	})
	var errs []error
	get := func(path string, timeout time.Duration) {
		a.HTTPGetAsync(b.IP(), 80, &HTTPRequest{Method: "GET", Path: path}, timeout,
			func(_ *HTTPResult, err error) { errs = append(errs, err) })
	}
	get("/slow", 20*time.Millisecond) // in service from 6 ms to 106 ms
	k.RunUntil(50 * time.Millisecond)
	slow := served[0]
	if len(errs) != 1 || !errors.Is(errs[0], ErrTimeout) {
		t.Fatalf("first call ended with %v, want ErrTimeout", errs)
	}
	if slow.conn == nil || !slow.conn.closed || slow.timers != 1 {
		t.Fatalf("at 50 ms the timed-out server connection is %+v, want closed and its response in service", slow)
	}
	get("/fast", 0)
	k.RunUntil(100 * time.Millisecond)
	if len(served) != 2 || served[1] == slow {
		t.Fatalf("a second connection was served by the one whose response is in service")
	}
	k.Run()
	if slow.conn != nil {
		t.Fatal("the server connection was not recycled once its response drained")
	}
	get("/fast", 0)
	k.Run()
	if len(served) != 3 || served[2] != slow {
		t.Errorf("the third connection did not reuse the drained server connection")
	}
	if len(errs) != 3 || errs[1] != nil || errs[2] != nil {
		t.Errorf("calls ended with %v, want ErrTimeout then two successes", errs)
	}
	if a.OpenConns() != 0 || b.OpenConns() != 0 {
		t.Errorf("%d client and %d server connections left open, want 0 and 0", a.OpenConns(), b.OpenConns())
	}
	if len(n.callPool) != 1 || len(n.connPool) != 3 {
		t.Errorf("free lists hold %d calls and %d connections, want 1 and 3", len(n.callPool), len(n.connPool))
	}
}

// TestHTTPFailedCallsRecycle: a refused dial (RST) and a dial that times out
// before its SYN-ACK both return their call and client connection to the
// network's free lists, so repeating them does not grow the lists.
func TestHTTPFailedCallsRecycle(t *testing.T) {
	for _, tc := range []struct {
		name    string
		port    int
		timeout time.Duration
		want    error
	}{
		{"refused", 81, 0, ErrConnRefused},
		{"dial timeout", 80, 25 * time.Millisecond, ErrTimeout}, // the SYN-ACK is back at 40 ms
	} {
		k, n, a, b := pair(t, LinkConfig{Latency: 10 * time.Millisecond})
		b.ServeHTTPAsync(80, func(c *HTTPServerConn, req *HTTPRequest) {
			c.Respond(&HTTPResponse{Status: 200})
		})
		for i := 0; i < 3; i++ {
			var err error
			a.HTTPGetAsync(b.IP(), tc.port, &HTTPRequest{Method: "GET", Path: "/"}, tc.timeout,
				func(_ *HTTPResult, e error) { err = e })
			k.Run()
			if !errors.Is(err, tc.want) {
				t.Fatalf("%s: call %d ended with %v, want %v", tc.name, i, err, tc.want)
			}
			// The server's end of a timed-out dial stays established: nothing
			// tells it the client gave up, and it is never recycled.
			if len(n.callPool) != 1 || len(n.connPool) != 1 {
				t.Fatalf("%s: after call %d the free lists hold %d calls and %d connections, want 1 and 1",
					tc.name, i, len(n.callPool), len(n.connPool))
			}
		}
		if a.OpenConns() != 0 {
			t.Errorf("%s: %d connections left on the client, want 0", tc.name, a.OpenConns())
		}
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
	client := recorder{reply: (*Conn).Close}
	client.open = func(c *Conn) {
		if err := c.Send(minWireSize, "not an http request"); err != nil {
			t.Error(err)
		}
		if err := c.Send(minWireSize, &HTTPRequest{Method: "GET", Path: "/"}); err != nil {
			t.Error(err)
		}
	}
	a.DialAsync(b.IP(), 80, &client)
	k.Run()
	if len(client.msgs) != 1 || client.msgs[0].(*HTTPResponse).Status != 200 {
		t.Fatalf("responses = %v, want one 200 (foreign payload must be skipped)", client.msgs)
	}
}

// exchange runs one request through the named entry point to completion.
func exchange(k *sim.Kernel, entry string, from *Host, dst Addr, req *HTTPRequest, timeout time.Duration) (res *HTTPResult, err error) {
	if entry == "HTTPGet" {
		k.Go("client", func(p *sim.Proc) { res, err = from.HTTPGet(p, dst, 80, req, timeout) })
	} else {
		from.HTTPGetAsync(dst, 80, req, timeout, func(r *HTTPResult, e error) {
			if err = e; r != nil {
				kept := *r // borrowed: valid only inside the callback
				res = &kept
			}
		})
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
