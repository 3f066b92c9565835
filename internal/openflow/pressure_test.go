package openflow

import (
	"fmt"
	"testing"
	"time"

	"transparentedge/internal/simnet"
)

// TestTablePressureAccounting drives install/delete churn through a switch
// and checks the table-pressure accounting the steering sweep reports:
// RuleHighWater tracks the peak live table size and is not disturbed by rules
// coming back out of the table.
func TestTablePressureAccounting(t *testing.T) {
	rg := newRig(t)
	base := rg.sw.RuleCount()
	if rg.sw.RuleHighWater != base {
		t.Fatalf("fresh switch: RuleHighWater=%d", rg.sw.RuleHighWater)
	}
	const n = 40
	for i := 0; i < n; i++ {
		rg.sw.AddFlow(FlowRule{
			Priority: 100,
			Cookie:   uint64(1000 + i),
			Match:    Match{SrcIP: simnet.Addr(fmt.Sprintf("10.1.0.%d", i)), DstIP: "203.0.113.99", DstPort: 80},
			Actions:  Actions{Output: OutputNormal},
		})
	}
	if got := rg.sw.RuleCount(); got != base+n {
		t.Fatalf("RuleCount = %d, want %d", got, base+n)
	}
	if rg.sw.RuleHighWater != base+n {
		t.Fatalf("RuleHighWater = %d, want %d", rg.sw.RuleHighWater, base+n)
	}
	// Delete half: the high-water mark must hold at the peak.
	for i := 0; i < n/2; i++ {
		rg.sw.DeleteFlows(uint64(1000 + i))
	}
	if got := rg.sw.RuleCount(); got != base+n/2 {
		t.Fatalf("RuleCount after deletes = %d, want %d", got, base+n/2)
	}
	if rg.sw.RuleHighWater != base+n {
		t.Fatalf("RuleHighWater after deletes = %d, want peak %d", rg.sw.RuleHighWater, base+n)
	}
	// Refill past the old peak: the high-water mark advances again.
	for i := 0; i < n; i++ {
		rg.sw.AddFlow(FlowRule{
			Priority: 100,
			Cookie:   uint64(5000 + i),
			Match:    Match{SrcIP: simnet.Addr(fmt.Sprintf("10.2.0.%d", i)), DstIP: "203.0.113.99", DstPort: 80},
			Actions:  Actions{Output: OutputNormal},
		})
	}
	if want := base + n/2 + n; rg.sw.RuleHighWater != want {
		t.Fatalf("RuleHighWater after refill = %d, want %d", rg.sw.RuleHighWater, want)
	}
}

// TestTablePressureEvictionBookkeeping lets rules idle-expire under churn
// and checks that expiry evicts table occupancy (RuleCount falls) and delivers
// the FlowRemoved notification.
func TestTablePressureEvictionBookkeeping(t *testing.T) {
	rg := newRig(t)
	ctrl := &recordingController{}
	rg.sw.SetController(ctrl)
	base := rg.sw.RuleCount()
	const n = 10
	for i := 0; i < n; i++ {
		rg.sw.AddFlow(FlowRule{
			Priority:      100,
			Cookie:        uint64(2000 + i),
			Match:         Match{SrcIP: simnet.Addr(fmt.Sprintf("10.1.0.%d", i)), DstIP: "203.0.113.99", DstPort: 80},
			Actions:       Actions{Output: OutputNormal},
			IdleTimeout:   100 * time.Millisecond,
			NotifyRemoved: true,
		})
	}
	rg.k.Run() // idle clocks run out; every rule expires and notifies
	if got := rg.sw.RuleCount(); got != base {
		t.Fatalf("RuleCount after expiry = %d, want %d", got, base)
	}
	if len(ctrl.removed) != n {
		t.Fatalf("FlowRemoved notifications = %d, want %d", len(ctrl.removed), n)
	}
	if rg.sw.RuleHighWater != base+n {
		t.Fatalf("RuleHighWater = %d, want %d", rg.sw.RuleHighWater, base+n)
	}
}
