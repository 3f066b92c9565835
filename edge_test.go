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

func TestPublicTableI(t *testing.T) {
	res := edge.RunTableI()
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
}

func TestPublicExperimentWrappers(t *testing.T) {
	if res := edge.RunFig9And10(7); len(res.PerService) != 42 {
		t.Fatalf("fig9/10 = %d services", len(res.PerService))
	}
	su, err := edge.RunScaleUpStudy(7, true, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(su.Totals.Rows()) != 4 {
		t.Fatalf("scale-up rows = %v", su.Totals.Rows())
	}
	fw, err := edge.RunFutureWorkServerless(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(fw.Table.Rows()) != 3 {
		t.Fatalf("serverless rows = %v", fw.Table.Rows())
	}
	pol, err := edge.RunAblationWaitingPolicy(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(pol.Table.Rows()) != 3 {
		t.Fatalf("policy rows = %v", pol.Table.Rows())
	}
	pred := edge.NewEWMAPredictor(0.3)
	var _ edge.Predictor = pred
}

// A bad name handed to a public option comes back as an error from the
// runner, not as a panic from deep inside testbed construction.
func TestPublicRunnerRejectsUnknownBackend(t *testing.T) {
	if _, err := edge.RunReplayScale(1, 100, edge.WithSteerBackend("bogus")); err == nil {
		t.Fatal(`RunReplayScale with WithSteerBackend("bogus") returned no error`)
	}
	if _, err := edge.RunSteerSweep(1, 100, []string{"bogus"}); err == nil {
		t.Fatal(`RunSteerSweep over backend "bogus" returned no error`)
	}
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
