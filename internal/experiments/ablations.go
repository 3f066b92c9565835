package experiments

import (
	"fmt"
	"time"

	"transparentedge/internal/catalog"
	"transparentedge/internal/core"
	"transparentedge/internal/metrics"
	"transparentedge/internal/testbed"
)

// Ablations probe the design choices DESIGN.md calls out: the FlowMemory,
// the switch idle timeout, and the waiting policy. They go beyond the
// paper's figures but quantify the paper's §V design arguments.

// flowMemoryResult compares a returning client's request latency and the
// controller work with and without the FlowMemory (§V's argument: the
// memory allows low switch idle timeouts because returning clients are
// re-served "without the scheduling process").
type flowMemoryResult struct {
	*metrics.Table
	// PacketIns counts packet-ins in each mode (identical: the memory
	// saves scheduling work, not packet-ins).
	PacketInsWith, PacketInsWithout uint64
}

// ablationFlowMemory measures the latency of a returning client whose
// switch flow has idle-expired: with the FlowMemory the controller
// re-installs the memorized flow immediately; without it the full
// dispatch/scheduling path runs again.
func ablationFlowMemory(seed int64) (flowMemoryResult, error) {
	res := flowMemoryResult{Table: metrics.NewTable(
		"Ablation — returning client after switch-flow expiry (nginx, Docker)",
		"median request")}
	for _, mode := range []struct {
		row       string
		memIdle   time.Duration
		packetIns *uint64
	}{
		{"with FlowMemory", 30 * time.Minute, &res.PacketInsWith},
		{"without FlowMemory", time.Millisecond, &res.PacketInsWithout}, // effectively disabled
	} {
		series := metrics.NewSeries("returning")
		tb, err := script(testbed.Options{
			Seed: seed, EnableDocker: true,
			SwitchIdleTimeout: time.Second,
			MemoryIdleTimeout: mode.memIdle,
		}, catalog.Nginx, 30*time.Minute, func(s *scenario) error {
			if _, err := s.request(0); err != nil {
				return err
			}
			for i := 0; i < 20; i++ {
				s.p.Sleep(5 * time.Second) // switch flow idle-expires
				d, err := s.request(0)
				if err != nil {
					return err
				}
				series.Add(s.p.Now(), d)
			}
			return nil
		})
		if err != nil {
			return flowMemoryResult{}, err
		}
		res.Table.AddRow(mode.row, series.Median())
		*mode.packetIns = tb.Ctrl.Stats.PacketIns
	}
	return res, nil
}

// idleTimeoutResult sweeps the switch idle timeout.
type idleTimeoutResult struct {
	*metrics.Table // row per timeout: median request latency
	// PacketIns per timeout value (same row order).
	PacketIns []uint64
	// FlowTableSizes samples the peak installed rule count per timeout.
	FlowTableSizes []int
}

// ablationIdleTimeout sweeps the switch-side idle timeout for a client that
// requests every 5 s: short timeouts keep the flow table small but cost a
// controller round trip per request; long timeouts do the opposite — the
// trade-off the FlowMemory design targets.
func ablationIdleTimeout(seed int64) (idleTimeoutResult, error) {
	res := idleTimeoutResult{Table: metrics.NewTable(
		"Ablation — switch idle timeout sweep (client requests every 5 s)",
		"median request")}
	for _, to := range []time.Duration{time.Second, 10 * time.Second, time.Minute} {
		series := metrics.NewSeries("req")
		peak := 0
		tb, err := script(testbed.Options{
			Seed: seed, EnableDocker: true,
			SwitchIdleTimeout: to,
			MemoryIdleTimeout: 30 * time.Minute,
		}, catalog.Nginx, time.Hour, func(s *scenario) error {
			if _, err := s.request(0); err != nil {
				return err
			}
			for i := 0; i < 30; i++ {
				s.p.Sleep(5 * time.Second)
				d, err := s.request(0)
				if err != nil {
					return err
				}
				series.Add(s.p.Now(), d)
				if n := s.tb.Switch.RuleCount(); n > peak {
					peak = n
				}
			}
			return nil
		})
		if err != nil {
			return idleTimeoutResult{}, err
		}
		res.Table.AddRow(to.String(), series.Median())
		res.PacketIns = append(res.PacketIns, tb.Ctrl.Stats.PacketIns)
		res.FlowTableSizes = append(res.FlowTableSizes, peak)
	}
	return res, nil
}

// ablationWaitingPolicy compares the three §IV deployment policies on a
// cold edge: it measures the first request (images cached) and a later
// request under with-waiting (hold the request), no-wait (serve from the
// cloud while deploying), and the §VII hybrid.
func ablationWaitingPolicy(seed int64) (*metrics.Table, error) {
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
		var first, later time.Duration
		if _, err := script(testbed.Options{
			Seed: seed, EnableDocker: true, EnableKube: pl.kube,
			Scheduler:         pl.sched,
			SwitchIdleTimeout: 2 * time.Second,
		}, catalog.Nginx, 30*time.Minute, func(s *scenario) error {
			if err := s.prepare(false); err != nil {
				return err
			}
			var err error
			if first, err = s.request(0); err != nil {
				return err
			}
			s.p.Sleep(time.Minute) // background deployments settle
			later, err = s.request(0)
			return err
		}); err != nil {
			return nil, fmt.Errorf("%s: %w", pl.name, err)
		}
		res.AddRow(pl.name, first, later)
	}
	return res, nil
}

// proactiveResult compares a periodic client's request latency with and
// without proactive deployment (§I/§VII: prediction pre-deploys services
// just in time; on-demand remains the fallback for mispredictions).
type proactiveResult struct {
	*metrics.Table
	// ProactiveDeployments counts predictor-initiated deployments.
	ProactiveDeployments uint64
}

// ablationProactive runs a client requesting every 45 s against a testbed
// that aggressively scales idle services down: without prediction every
// request pays a cold scale-up; with the EWMA predictor the service is
// redeployed shortly before each request.
func ablationProactive(seed int64) (proactiveResult, error) {
	res := proactiveResult{Table: metrics.NewTable(
		"Ablation — periodic client vs. aggressive scale-down (nginx, Docker)",
		"median request")}
	for _, mode := range []struct {
		row  string
		pred core.Predictor
	}{{"on-demand only", nil}, {"with EWMA prediction", core.NewEWMAPredictor(0.3)}} {
		series := metrics.NewSeries("periodic")
		tb, err := script(testbed.Options{
			Seed: seed, EnableDocker: true,
			AutoScaleDown:     true,
			SwitchIdleTimeout: 5 * time.Second,
			MemoryIdleTimeout: 20 * time.Second,
			Predictor:         mode.pred,
		}, catalog.Nginx, time.Hour, func(s *scenario) error {
			for i := 0; i < 20; i++ {
				d, err := s.request(0)
				if err != nil {
					return err
				}
				if i >= 3 { // skip warm-up (predictor needs samples)
					series.Add(s.p.Now(), d)
				}
				s.p.Sleep(45 * time.Second)
			}
			return nil
		})
		if err != nil {
			return proactiveResult{}, err
		}
		res.Table.AddRow(mode.row, series.Median())
		res.ProactiveDeployments = tb.Ctrl.Stats.ProactiveDeployments
	}
	return res, nil
}

// ablationProbeInterval sweeps the controller's readiness-probe interval to
// measure how it quantizes the readiness wait (figs. 14/15): the expected
// detection lag is half the interval, so coarse probing directly inflates
// the first-request latency of fast-starting services.
func ablationProbeInterval(seed int64) (*metrics.Table, error) {
	res := metrics.NewTable(
		"Ablation — readiness-probe interval (nginx on Docker, scale-up only)",
		"median first request")
	for _, iv := range []time.Duration{5 * time.Millisecond, 20 * time.Millisecond,
		100 * time.Millisecond, 500 * time.Millisecond} {
		series := metrics.NewSeries(iv.String())
		if _, err := script(testbed.Options{Seed: seed, EnableDocker: true, ProbeInterval: iv},
			catalog.Nginx, 2*time.Hour, func(s *scenario) error {
				// Pull + create ahead; measure repeated cold scale-ups.
				if err := s.prepare(true); err != nil {
					return err
				}
				for i := 0; i < 10; i++ {
					d, err := s.request(i % len(s.tb.Clients))
					if err != nil {
						return err
					}
					series.Add(s.p.Now(), d)
					// Scale down and let flows/memory drain so the next
					// request is a cold scale-up again.
					if err := s.tb.Ctrl.ScaleDownService(s.p, "egs-docker", s.a.UniqueName); err != nil {
						return err
					}
					s.p.Sleep(3 * time.Minute)
				}
				return nil
			}); err != nil {
			return nil, err
		}
		res.AddRow(iv.String(), series.Median())
	}
	return res, nil
}

// ablationHierarchy quantifies fig. 3's motivation: hierarchically higher
// (farther) edge clusters are more likely to have a service warm, so the
// first request can be served there instantly while the optimal edge
// deploys in the background. It measures the first request under three
// initial states of a two-site edge hierarchy (near EGS + farther edge),
// images cached, proximity scheduler: cold everywhere (wait for the near
// deployment), warm at the far edge (served there, no waiting), warm at the
// near edge.
func ablationHierarchy(seed int64) (*metrics.Table, error) {
	res := metrics.NewTable(
		"Ablation — fig. 3 hierarchy (nginx, images cached, proximity scheduler)",
		"first request")
	for _, state := range []struct {
		row               string
		warmFar, warmNear bool
	}{
		{"cold everywhere (wait)", false, false},
		{"warm at far edge (no waiting)", true, false},
		{"warm at near edge", false, true},
	} {
		var first time.Duration
		if _, err := script(testbed.Options{
			Seed: seed, EnableDocker: true, EnableFarEdge: true,
			Scheduler: core.ProximityScheduler{},
		}, catalog.Nginx, 30*time.Minute, func(s *scenario) error {
			// Cache images at both sites.
			if err := s.prepare(false); err != nil {
				return err
			}
			if state.warmFar {
				if err := s.warm(s.tb.FarDocker); err != nil {
					return err
				}
			}
			if state.warmNear {
				if err := s.warm(s.tb.Docker); err != nil {
					return err
				}
			}
			var err error
			first, err = s.request(0)
			return err
		}); err != nil {
			return nil, err
		}
		res.AddRow(state.row, first)
	}
	return res, nil
}
