package experiments

import (
	"fmt"
	"time"

	"transparentedge/internal/catalog"
	"transparentedge/internal/core"
	"transparentedge/internal/metrics"
	"transparentedge/internal/sim"
	"transparentedge/internal/testbed"
)

// Ablations probe the design choices DESIGN.md calls out: the FlowMemory,
// the switch idle timeout, and the waiting policy. They go beyond the
// paper's figures but quantify the paper's §V design arguments.

// FlowMemoryResult compares a returning client's request latency and the
// controller work with and without the FlowMemory (§V's argument: the
// memory allows low switch idle timeouts because returning clients are
// re-served "without the scheduling process").
type FlowMemoryResult struct {
	*metrics.Table
	// PacketIns counts packet-ins in each mode (identical: the memory
	// saves scheduling work, not packet-ins).
	PacketInsWith, PacketInsWithout uint64
}

// Notes is the line edgesim prints under the table.
func (r *FlowMemoryResult) Notes() string {
	return fmt.Sprintf("packet-ins: with memory %d, without %d\n", r.PacketInsWith, r.PacketInsWithout)
}

// AblationFlowMemory measures the latency of a returning client whose
// switch flow has idle-expired: with the FlowMemory the controller
// re-installs the memorized flow immediately; without it the full
// dispatch/scheduling path runs again.
func AblationFlowMemory(seed int64) (*FlowMemoryResult, error) {
	res := &FlowMemoryResult{Table: metrics.NewTable(
		"Ablation — returning client after switch-flow expiry (nginx, Docker)",
		"median request")}
	run := func(memory bool) (time.Duration, uint64, error) {
		memIdle := 30 * time.Minute
		if !memory {
			memIdle = time.Millisecond // effectively disabled
		}
		tb := testbed.New(testbed.Options{
			Seed: seed, EnableDocker: true,
			SwitchIdleTimeout: time.Second,
			MemoryIdleTimeout: memIdle,
		})
		_, reg, err := tb.RegisterCatalogService(catalog.Nginx)
		if err != nil {
			return 0, 0, err
		}
		series := metrics.NewSeries("returning")
		rerr := drive(tb.K, 30*time.Minute, func(p *sim.Proc) error {
			if _, err := tb.Request(p, 0, reg, catalog.Nginx, 0); err != nil {
				return err
			}
			for i := 0; i < 20; i++ {
				p.Sleep(5 * time.Second) // switch flow idle-expires
				hr, err := tb.Request(p, 0, reg, catalog.Nginx, 0)
				if err != nil {
					return err
				}
				series.Add(p.Now(), hr.Total)
			}
			return nil
		})
		return series.Median(), tb.Ctrl.Stats.PacketIns, rerr
	}
	with, pktWith, err := run(true)
	if err != nil {
		return nil, err
	}
	without, pktWithout, err := run(false)
	if err != nil {
		return nil, err
	}
	res.Table.AddRow("with FlowMemory", with)
	res.Table.AddRow("without FlowMemory", without)
	res.PacketInsWith = pktWith
	res.PacketInsWithout = pktWithout
	return res, nil
}

// IdleTimeoutResult sweeps the switch idle timeout.
type IdleTimeoutResult struct {
	*metrics.Table // row per timeout: median request latency
	// PacketIns per timeout value (same row order).
	PacketIns []uint64
	// FlowTableSizes samples the peak installed rule count per timeout.
	FlowTableSizes []int
}

// Notes is the line edgesim prints under the table.
func (r *IdleTimeoutResult) Notes() string {
	return fmt.Sprintf("packet-ins per setting: %v, peak flow rules: %v\n", r.PacketIns, r.FlowTableSizes)
}

// AblationIdleTimeout sweeps the switch-side idle timeout for a client that
// requests every 5 s: short timeouts keep the flow table small but cost a
// controller round trip per request; long timeouts do the opposite — the
// trade-off the FlowMemory design targets.
func AblationIdleTimeout(seed int64) (*IdleTimeoutResult, error) {
	res := &IdleTimeoutResult{Table: metrics.NewTable(
		"Ablation — switch idle timeout sweep (client requests every 5 s)",
		"median request")}
	for _, to := range []time.Duration{time.Second, 10 * time.Second, time.Minute} {
		tb := testbed.New(testbed.Options{
			Seed: seed, EnableDocker: true,
			SwitchIdleTimeout: to,
			MemoryIdleTimeout: 30 * time.Minute,
		})
		_, reg, err := tb.RegisterCatalogService(catalog.Nginx)
		if err != nil {
			return nil, err
		}
		series := metrics.NewSeries("req")
		peak := 0
		rerr := drive(tb.K, time.Hour, func(p *sim.Proc) error {
			if _, err := tb.Request(p, 0, reg, catalog.Nginx, 0); err != nil {
				return err
			}
			for i := 0; i < 30; i++ {
				p.Sleep(5 * time.Second)
				hr, err := tb.Request(p, 0, reg, catalog.Nginx, 0)
				if err != nil {
					return err
				}
				series.Add(p.Now(), hr.Total)
				if n := tb.Switch.RuleCount(); n > peak {
					peak = n
				}
			}
			return nil
		})
		if rerr != nil {
			return nil, rerr
		}
		res.Table.AddRow(to.String(), series.Median())
		res.PacketIns = append(res.PacketIns, tb.Ctrl.Stats.PacketIns)
		res.FlowTableSizes = append(res.FlowTableSizes, peak)
	}
	return res, nil
}

// AblationWaitingPolicy compares the three §IV deployment policies on a
// cold edge: it measures the first request (images cached) and a later
// request under with-waiting (hold the request), no-wait (serve from the
// cloud while deploying), and the §VII hybrid.
func AblationWaitingPolicy(seed int64) (*metrics.Table, error) {
	res := metrics.NewTable(
		"Ablation — deployment policy (nginx, images cached, cold edge)",
		"first request", "later request")
	type pol struct {
		name  string
		sched core.GlobalScheduler
		kube  bool
	}
	pols := []pol{
		{"with-waiting", core.WaitNearestScheduler{}, false},
		{"no-wait (cloud first)", core.NoWaitScheduler{}, false},
		{"hybrid docker-first", core.DockerFirstScheduler{}, true},
	}
	for _, pl := range pols {
		tb := testbed.New(testbed.Options{
			Seed: seed, EnableDocker: true, EnableKube: pl.kube,
			Scheduler:         pl.sched,
			SwitchIdleTimeout: 2 * time.Second,
		})
		a, reg, err := tb.RegisterCatalogService(catalog.Nginx)
		if err != nil {
			return nil, err
		}
		var first, later time.Duration
		rerr := drive(tb.K, 30*time.Minute, func(p *sim.Proc) error {
			for _, cl := range tb.Ctrl.Clusters() {
				if err := cl.Pull(p, a); err != nil {
					return err
				}
			}
			hr, err := tb.Request(p, 0, reg, catalog.Nginx, 0)
			if err != nil {
				return err
			}
			first = hr.Total
			p.Sleep(time.Minute) // background deployments settle
			hr, err = tb.Request(p, 0, reg, catalog.Nginx, 0)
			if err != nil {
				return err
			}
			later = hr.Total
			return nil
		})
		if rerr != nil {
			return nil, fmt.Errorf("%s: %w", pl.name, rerr)
		}
		res.AddRow(pl.name, first, later)
	}
	return res, nil
}

// ProactiveResult compares a periodic client's request latency with and
// without proactive deployment (§I/§VII: prediction pre-deploys services
// just in time; on-demand remains the fallback for mispredictions).
type ProactiveResult struct {
	*metrics.Table
	// ProactiveDeployments counts predictor-initiated deployments.
	ProactiveDeployments uint64
}

// Notes is the line edgesim prints under the table.
func (r *ProactiveResult) Notes() string {
	return fmt.Sprintf("proactive deployments: %d\n", r.ProactiveDeployments)
}

// AblationProactive runs a client requesting every 45 s against a testbed
// that aggressively scales idle services down: without prediction every
// request pays a cold scale-up; with the EWMA predictor the service is
// redeployed shortly before each request.
func AblationProactive(seed int64) (*ProactiveResult, error) {
	res := &ProactiveResult{Table: metrics.NewTable(
		"Ablation — periodic client vs. aggressive scale-down (nginx, Docker)",
		"median request")}
	run := func(pred core.Predictor) (time.Duration, uint64, error) {
		tb := testbed.New(testbed.Options{
			Seed: seed, EnableDocker: true,
			AutoScaleDown:     true,
			SwitchIdleTimeout: 5 * time.Second,
			MemoryIdleTimeout: 20 * time.Second,
			Predictor:         pred,
		})
		_, reg, err := tb.RegisterCatalogService(catalog.Nginx)
		if err != nil {
			return 0, 0, err
		}
		series := metrics.NewSeries("periodic")
		rerr := drive(tb.K, time.Hour, func(p *sim.Proc) error {
			for i := 0; i < 20; i++ {
				hr, err := tb.Request(p, 0, reg, catalog.Nginx, 0)
				if err != nil {
					return err
				}
				if i >= 3 { // skip warm-up (predictor needs samples)
					series.Add(p.Now(), hr.Total)
				}
				p.Sleep(45 * time.Second)
			}
			return nil
		})
		return series.Median(), tb.Ctrl.Stats.ProactiveDeployments, rerr
	}
	without, _, err := run(nil)
	if err != nil {
		return nil, err
	}
	with, proactive, err := run(core.NewEWMAPredictor(0.3))
	if err != nil {
		return nil, err
	}
	res.Table.AddRow("on-demand only", without)
	res.Table.AddRow("with EWMA prediction", with)
	res.ProactiveDeployments = proactive
	return res, nil
}

// AblationProbeInterval sweeps the controller's readiness-probe interval to
// measure how it quantizes the readiness wait (figs. 14/15): the expected
// detection lag is half the interval, so coarse probing directly inflates
// the first-request latency of fast-starting services.
func AblationProbeInterval(seed int64) (*metrics.Table, error) {
	res := metrics.NewTable(
		"Ablation — readiness-probe interval (nginx on Docker, scale-up only)",
		"median first request")
	for _, iv := range []time.Duration{5 * time.Millisecond, 20 * time.Millisecond,
		100 * time.Millisecond, 500 * time.Millisecond} {
		tb := testbed.New(testbed.Options{Seed: seed, EnableDocker: true, ProbeInterval: iv})
		a, reg, err := tb.RegisterCatalogService(catalog.Nginx)
		if err != nil {
			return nil, err
		}
		series := metrics.NewSeries(iv.String())
		rerr := drive(tb.K, 2*time.Hour, func(p *sim.Proc) error {
			// Pull + create ahead; measure repeated cold scale-ups.
			for _, cl := range tb.Ctrl.Clusters() {
				if err := cl.Pull(p, a); err != nil {
					return err
				}
				if err := cl.Create(p, a); err != nil {
					return err
				}
			}
			for i := 0; i < 10; i++ {
				hr, err := tb.Request(p, i%len(tb.Clients), reg, catalog.Nginx, 0)
				if err != nil {
					return err
				}
				series.Add(p.Now(), hr.Total)
				// Scale down and let flows/memory drain so the next
				// request is a cold scale-up again.
				tb.Ctrl.ScaleDownService(p, "egs-docker", a.UniqueName)
				p.Sleep(3 * time.Minute)
			}
			return nil
		})
		if rerr != nil {
			return nil, rerr
		}
		res.AddRow(iv.String(), series.Median())
	}
	return res, nil
}

// AblationHierarchy quantifies fig. 3's motivation: hierarchically higher
// (farther) edge clusters are more likely to have a service warm, so the
// first request can be served there instantly while the optimal edge
// deploys in the background. It measures the first request under three
// initial states of a two-site edge hierarchy (near EGS + farther edge),
// images cached, proximity scheduler: cold everywhere (wait for the near
// deployment), warm at the far edge (served there, no waiting), warm at the
// near edge.
func AblationHierarchy(seed int64) (*metrics.Table, error) {
	res := metrics.NewTable(
		"Ablation — fig. 3 hierarchy (nginx, images cached, proximity scheduler)",
		"first request")
	run := func(warmFar, warmNear bool) (time.Duration, error) {
		tb := testbed.New(testbed.Options{
			Seed: seed, EnableDocker: true, EnableFarEdge: true,
			Scheduler: core.ProximityScheduler{},
		})
		a, reg, err := tb.RegisterCatalogService(catalog.Nginx)
		if err != nil {
			return 0, err
		}
		var first time.Duration
		rerr := drive(tb.K, 30*time.Minute, func(p *sim.Proc) error {
			// Cache images at both sites.
			if err := tb.Docker.Pull(p, a); err != nil {
				return err
			}
			if err := tb.FarDocker.Pull(p, a); err != nil {
				return err
			}
			if warmFar {
				tb.FarDocker.Create(p, a)
				tb.FarDocker.ScaleUp(p, a.UniqueName)
				p.Sleep(time.Second)
			}
			if warmNear {
				tb.Docker.Create(p, a)
				tb.Docker.ScaleUp(p, a.UniqueName)
				p.Sleep(time.Second)
			}
			hr, err := tb.Request(p, 0, reg, catalog.Nginx, 0)
			if err != nil {
				return err
			}
			first = hr.Total
			return nil
		})
		return first, rerr
	}
	cold, err := run(false, false)
	if err != nil {
		return nil, err
	}
	far, err := run(true, false)
	if err != nil {
		return nil, err
	}
	near, err := run(false, true)
	if err != nil {
		return nil, err
	}
	res.AddRow("cold everywhere (wait)", cold)
	res.AddRow("warm at far edge (no waiting)", far)
	res.AddRow("warm at near edge", near)
	return res, nil
}
