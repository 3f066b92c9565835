package core

import (
	"sort"
	"time"

	"transparentedge/internal/obs"
	"transparentedge/internal/sim"
)

// Predictor forecasts which services will be requested soon, enabling
// proactive deployment (paper §I: "prediction algorithms could be used to
// pre-deploy the required services just in time"; §VII: on-demand
// deployment works even better "when combined with good prediction for
// proactive deployment"). Prediction is never perfect — the controller's
// on-demand path remains the safety net for every miss.
type Predictor interface {
	// Observe records a request for a service at virtual time at.
	Observe(service string, at sim.Time)
	// Predict returns the services expected to receive a request within
	// the horizon after now.
	Predict(now sim.Time, horizon time.Duration) []string
}

// EWMAPredictor forecasts per-service next arrivals from an exponentially
// weighted moving average of inter-arrival times: a service is predicted
// when its expected next arrival falls inside the horizon. Services seen
// only once are not predicted (no interval estimate yet).
type EWMAPredictor struct {
	// Alpha is the EWMA weight of the newest inter-arrival (0,1].
	Alpha float64
	stats map[string]*ewmaStat
}

type ewmaStat struct {
	lastSeen sim.Time
	interval float64 // EWMA of inter-arrival, ns
	samples  int
}

// NewEWMAPredictor returns a predictor with the given smoothing weight
// (0 < alpha <= 1; 0.3 is a reasonable default).
func NewEWMAPredictor(alpha float64) *EWMAPredictor {
	if alpha <= 0 || alpha > 1 {
		alpha = 0.3
	}
	return &EWMAPredictor{Alpha: alpha, stats: make(map[string]*ewmaStat)}
}

// Observe implements Predictor.
func (e *EWMAPredictor) Observe(service string, at sim.Time) {
	st, ok := e.stats[service]
	if !ok {
		e.stats[service] = &ewmaStat{lastSeen: at, samples: 1}
		return
	}
	gap := float64(at - st.lastSeen)
	if gap <= 0 {
		return // concurrent requests carry no interval information
	}
	if st.samples == 1 {
		st.interval = gap
	} else {
		st.interval = e.Alpha*gap + (1-e.Alpha)*st.interval
	}
	st.samples++
	st.lastSeen = at
}

// Predict implements Predictor.
func (e *EWMAPredictor) Predict(now sim.Time, horizon time.Duration) []string {
	var out []string
	for svc, st := range e.stats {
		if st.samples < 2 {
			continue
		}
		next := st.lastSeen + sim.Time(st.interval)
		if next <= now+horizon {
			out = append(out, svc)
		}
	}
	sort.Strings(out)
	return out
}

// StartProactive runs the proactive deployment loop: every interval the
// predictor is asked which services will be requested within the horizon,
// and each predicted service that is not yet running is deployed to the
// cluster the Global Scheduler would pick (without a client context).
// Observations are fed automatically from the packet-in path.
func (c *Controller) StartProactive(pred Predictor, interval, horizon time.Duration) {
	if pred == nil {
		return
	}
	c.predictor = pred
	c.k.Go("proactive-deployer", func(p *sim.Proc) {
		d := &dispatchRec{c: c} // buildState's buffers, reused every round
		for {
			p.Sleep(interval)
			for _, name := range pred.Predict(c.k.Now(), horizon) {
				svc, ok := c.byName[name]
				if !ok {
					continue
				}
				d.svc = svc
				st := c.buildState(p, d)
				choice := c.cfg.Scheduler.Choose(st)
				target := choice.Best
				if target == nil {
					target = choice.Fast
				}
				if target == nil || target.Running {
					continue
				}
				c.Stats.ProactiveDeployments++
				c.emit(obs.Event{Kind: obs.EvProactiveDeploy, Service: name, Cluster: target.Cluster.Name()})
				if _, _, err := c.deploy.ensureRunning(p, target.Cluster, svc, spanRef{}); err != nil {
					c.emit(obs.Event{Kind: obs.EvProactiveFailed, Service: name, Err: err})
				}
			}
		}
	})
}
