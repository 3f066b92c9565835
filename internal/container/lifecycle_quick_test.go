package container

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"transparentedge/internal/sim"
)

// TestQuickLifecycleInvariants drives a container through random operation
// sequences and checks the state-machine invariants after each step:
//
//   - operations only succeed in the states the API documents;
//   - Ready implies StateRunning;
//   - a removed container is no longer listed;
//   - the host port is open exactly when the container is ready.
func TestQuickLifecycleInvariants(t *testing.T) {
	type opCode uint8
	const (
		opStart opCode = iota
		opStop
		opRemove
		opSleep
		opCount
	)
	f := func(ops []uint8) bool {
		rg := newRig(t)
		okAll := true
		rg.k.Go("driver", func(p *sim.Proc) {
			if err := rg.rt.PullImage(p, "web:1"); err != nil {
				okAll = false
				return
			}
			c, err := create(p, rg.rt, webConfig("c1", 30*time.Millisecond))
			if err != nil {
				okAll = false
				return
			}
			for _, raw := range ops {
				op := opCode(raw) % opCount
				prev := c.State()
				switch op {
				case opStart:
					err := start(p, c, 30080)
					wantOK := prev == StateCreated || prev == StateStopped
					if (err == nil) != wantOK {
						okAll = false
						return
					}
				case opStop:
					err := stop(p, c)
					wantOK := prev == StateRunning
					if (err == nil) != wantOK {
						okAll = false
						return
					}
				case opRemove:
					err := remove(p, c)
					wantOK := prev != StateRemoved
					if (err == nil) != wantOK {
						okAll = false
						return
					}
				case opSleep:
					p.Sleep(50 * time.Millisecond)
				}
				// Invariants after every operation.
				if c.Ready() && c.State() != StateRunning {
					okAll = false
					return
				}
				if c.State() == StateRemoved {
					if _, listed := rg.rt.containers["c1"]; listed {
						okAll = false
						return
					}
				}
				if c.Ready() != rg.node.PortOpen(30080) {
					okAll = false
					return
				}
				if c.State() == StateRemoved {
					return // no further ops are meaningful
				}
			}
		})
		rg.k.RunUntil(time.Minute)
		return okAll
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(21))}); err != nil {
		t.Fatal(err)
	}
}
