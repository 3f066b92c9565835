package transparentedge_test

import (
	"testing"
	"time"

	edge "transparentedge"
)

// TestQuickstart exercises the documented public-API happy path.
func TestQuickstart(t *testing.T) {
	tb := edge.NewTestbed(edge.TestbedOptions{Seed: 1, EnableDocker: true})
	a, reg, err := tb.RegisterCatalogService(edge.Nginx)
	if err != nil {
		t.Fatal(err)
	}
	var first, second *edge.HTTPResult
	tb.K.Go("client", func(p *edge.Proc) {
		first, err = tb.Request(p, 0, reg, edge.Nginx, 0)
		if err != nil {
			return
		}
		second, err = tb.Request(p, 0, reg, edge.Nginx, 0)
	})
	tb.K.RunUntil(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if first == nil || second == nil {
		t.Fatal("requests incomplete")
	}
	if second.Total >= first.Total {
		t.Fatalf("second request (%v) not faster than deploying first (%v)", second.Total, first.Total)
	}
	if name := a.UniqueName; name == "" {
		t.Fatal("no unique service name")
	}
}

func TestPublicSchedulerRegistry(t *testing.T) {
	for _, name := range edge.SchedulerNames() {
		if _, err := edge.NewScheduler(name); err != nil {
			t.Errorf("NewScheduler(%q): %v", name, err)
		}
	}
	edge.RegisterScheduler("custom-test", func() edge.GlobalScheduler {
		s, _ := edge.NewScheduler("proximity")
		return s
	})
	if _, err := edge.NewScheduler("custom-test"); err != nil {
		t.Fatal(err)
	}
}

func TestPublicTraceAPI(t *testing.T) {
	tr := edge.GenerateTrace(edge.DefaultTraceConfig(1))
	if len(tr.Requests) != 1708 {
		t.Fatalf("requests = %d", len(tr.Requests))
	}
	if len(edge.ServiceKeys()) != 4 {
		t.Fatalf("service keys = %v", edge.ServiceKeys())
	}
}

// TestPublicSignatures pins the shape of the facade: every constructor hands
// back a public type the next call takes, so a caller holds each value under
// a name of this package and never has to import an internal one.
func TestPublicSignatures(t *testing.T) {
	var (
		_ func(edge.TestbedOptions) *edge.Testbed                                          = edge.NewTestbed
		_ func(int64) *edge.Kernel                                                         = edge.NewKernel
		_ func(edge.TraceConfig) *edge.Trace                                               = edge.GenerateTrace
		_ func(*edge.Testbed, *edge.Trace, string, bool, bool) (*edge.ReplayResult, error) = edge.ReplayTrace
		_ edge.Predictor                                                                   = edge.NewEWMAPredictor(0.3)
	)
}

func TestPublicReplayTrace(t *testing.T) {
	cfg := edge.DefaultTraceConfig(3)
	cfg.Services = 3
	cfg.TotalRequests = 15
	cfg.MinPerService = 3
	cfg.Duration = 20 * time.Second
	tr := edge.GenerateTrace(cfg)
	tb := edge.NewTestbed(edge.TestbedOptions{Seed: 3, EnableDocker: true, NumClients: 4})
	res, err := edge.ReplayTrace(tb, tr, edge.Asm, true, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 || res.Totals.Len() != 15 {
		t.Fatalf("replay = %d measured, %d errors", res.Totals.Len(), res.Errors)
	}
}
