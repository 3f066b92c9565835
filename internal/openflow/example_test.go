package openflow_test

import (
	"fmt"
	"time"

	"transparentedge/internal/openflow"
	"transparentedge/internal/sim"
	"transparentedge/internal/simnet"
)

// The transparent-access building block (paper fig. 2): a client addresses
// the cloud VIP, a pair of rewrite flows redirects the conversation to an
// edge instance and back, and the client never sees the edge address.
func Example() {
	k := sim.New(1)
	n := simnet.NewNetwork(k)
	sw := openflow.NewSwitch(n, "gnb", openflow.DefaultConfig())
	ue := simnet.NewHost(n, "ue", "10.0.1.1")
	edge := simnet.NewHost(n, "edge", "10.0.0.10")
	link := simnet.LinkConfig{Latency: 100 * time.Microsecond}
	sw.AttachHost(ue, 1, link)
	sw.AttachHost(edge, 2, link)

	edge.ServeHTTPAsync(32000, func(c *simnet.HTTPServerConn, req *simnet.HTTPRequest) {
		c.Respond(&simnet.HTTPResponse{Status: 200, Body: "served at the edge"})
	})

	vip := simnet.Addr("203.0.113.10")
	sw.AddFlow(openflow.FlowRule{
		Priority: 100,
		Match:    openflow.Match{DstIP: vip, DstPort: 80},
		Actions: openflow.Actions{
			SetDstIP: edge.IP(), SetDstPort: 32000,
			Output: openflow.OutputNormal,
		},
	})
	sw.AddFlow(openflow.FlowRule{
		Priority: 100,
		Match:    openflow.Match{SrcIP: edge.IP(), SrcPort: 32000},
		Actions: openflow.Actions{
			SetSrcIP: vip, SetSrcPort: 80,
			Output: openflow.OutputNormal,
		},
	})

	k.Go("ue", func(p *sim.Proc) {
		res, err := ue.HTTPGet(p, vip, 80, &simnet.HTTPRequest{Method: "GET"}, 0)
		if err != nil {
			panic(err)
		}
		fmt.Println(res.Resp.Body)
		fmt.Println("peer as seen by the client:", "203.0.113.10:80")
	})
	k.Run()
	// Output:
	// served at the edge
	// peer as seen by the client: 203.0.113.10:80
}
