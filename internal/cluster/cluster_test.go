package cluster

import (
	"testing"
	"time"

	"transparentedge/internal/sim"
	"transparentedge/internal/simnet"
)

// get serves b over a zero-latency link and returns one measured request, so
// Total is the handler's service time alone.
func get(t *testing.T, b Behavior) *simnet.HTTPResult {
	t.Helper()
	k := sim.New(1)
	n := simnet.NewNetwork(k)
	cli := simnet.NewHost(n, "client", "10.0.0.1")
	srv := simnet.NewHost(n, "server", "10.0.0.2")
	pc, ps := n.Connect(cli, srv, simnet.LinkConfig{})
	cli.SetUplink(pc)
	srv.SetUplink(ps)
	srv.ServeHTTPAsync(80, b.AsyncHandler())
	var res *simnet.HTTPResult
	cli.HTTPGetAsync(srv.IP(), 80, &simnet.HTTPRequest{Method: "GET"}, 0, func(r *simnet.HTTPResult, err error) {
		if err != nil {
			t.Errorf("request: %v", err)
			return
		}
		kept := *r // borrowed: valid only inside the callback
		res = &kept
	})
	k.Run()
	if res == nil {
		t.Fatal("no response")
	}
	return res
}

func TestBehaviorHandlerSleepsAndResponds(t *testing.T) {
	res := get(t, Behavior{ServiceTime: 25 * time.Millisecond, RespSize: 2 * simnet.KiB})
	if res.Resp.Status != 200 || res.Resp.Size != 2*simnet.KiB {
		t.Fatalf("resp = %+v", res.Resp)
	}
	if res.Total != 25*time.Millisecond {
		t.Fatalf("service time = %v, want 25ms", res.Total)
	}
}

func TestBehaviorHandlerZeroServiceTime(t *testing.T) {
	if took := get(t, Behavior{}).Total; took != 0 {
		t.Fatalf("zero-behavior handler took %v", took)
	}
}

func TestStaticBehaviorsLookup(t *testing.T) {
	s := StaticBehaviors{
		"img:1": {InitDelay: time.Second},
	}
	if got := s.Behavior("img:1"); got.InitDelay != time.Second {
		t.Fatalf("got %+v", got)
	}
	if got := s.Behavior("unknown"); got != (Behavior{}) {
		t.Fatalf("unknown image behavior = %+v, want zero", got)
	}
}
