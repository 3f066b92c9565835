package core

import (
	"time"

	"transparentedge/internal/cluster"
	"transparentedge/internal/obs"
	"transparentedge/internal/sim"
	"transparentedge/internal/spec"
)

// DeployRecord captures the per-phase timings of one on-demand deployment
// (the quantities behind figs. 10-15).
type DeployRecord struct {
	Service string
	Cluster string
	// StartedAt is when the dispatcher began the deployment.
	StartedAt sim.Time
	// Pull/Create/ScaleUp are the phase durations (zero when the phase was
	// skipped because the artifact already existed).
	Pull    time.Duration
	Create  time.Duration
	ScaleUp time.Duration
	// ReadyWait is the port-probing wait after scale-up until the service
	// accepted a connection (figs. 14/15).
	ReadyWait time.Duration
	// DidPull/DidCreate/DidScaleUp say which phases actually ran.
	DidPull    bool
	DidCreate  bool
	DidScaleUp bool
	// Attempts counts phase attempts including the final one (1 = clean
	// first-try deployment); Retries counts the failed attempts that were
	// retried under backoff, so Attempts == Retries + 1.
	Attempts int
	Retries  int
	// Err is non-nil if the deployment failed (after exhausting retries).
	Err error
}

// Total returns the deployment's total duration.
func (r DeployRecord) Total() time.Duration {
	return r.Pull + r.Create + r.ScaleUp + r.ReadyWait
}

// spanRef threads span-tree context through the deployment pipeline: parent
// is the enclosing span's ID, root the tree's root ID. The zero spanRef
// means "no enclosing tree" — with tracing on, the deployment becomes its
// own root; with tracing off every ID stays 0 and nothing is emitted.
type spanRef struct{ parent, root uint64 }

// deployer serializes and deduplicates deployments per (cluster, service):
// concurrent requests for the same not-yet-running service share one
// deployment (fig. 10's burst of up to eight deployments per second makes
// this essential).
type deployer struct {
	ctrl    *Controller
	pending map[deployKey]*sim.Promise[cluster.Instance]
}

// deployKey names one (cluster, service) deployment.
type deployKey struct{ cluster, service string }

func newDeployer(c *Controller) *deployer {
	return &deployer{ctrl: c, pending: make(map[deployKey]*sim.Promise[cluster.Instance])}
}

// ensureRunning drives the fig. 4 phases on cl until the service accepts
// connections, recording phase timings. It blocks the calling process and
// is safe to call concurrently (subsequent callers await the first run).
// performed reports whether THIS call executed at least one deployment
// phase: callers that join an in-flight deployment, and calls that find
// the service already running, get performed=false — that distinction
// keeps Stats.Deployments an exact count of deployments actually run.
func (d *deployer) ensureRunning(p *sim.Proc, cl cluster.Cluster, svc *spec.Annotated, ref spanRef) (inst cluster.Instance, performed bool, err error) {
	key := deployKey{cl.Name(), svc.UniqueName}
	if pr, ok := d.pending[key]; ok {
		tr := d.ctrl.tr
		var t0 time.Duration
		if tr != nil {
			t0 = time.Duration(p.Now())
		}
		inst, err = pr.Await(p)
		if tr != nil {
			s := obs.Span{Parent: ref.parent, Root: ref.root, Name: "deploy_wait", Cat: "deploy",
				Detail: key.cluster + "/" + key.service, Start: t0, End: time.Duration(p.Now())}
			if err != nil {
				s.Err = err.Error()
			}
			tr.Emit(s)
		}
		return inst, false, err
	}
	if ready(cl, svc) {
		// run takes its branch that neither blocks nor deploys: no other
		// caller can arrive while it runs, so there is nothing to share.
		return d.run(p, cl, svc, ref)
	}
	pr := sim.NewPromise[cluster.Instance](d.ctrl.k)
	d.pending[key] = pr
	inst, performed, err = d.run(p, cl, svc, ref)
	// Clear the dedup slot before settling the promise so a failed
	// deployment never wedges future retries behind a dead promise.
	delete(d.pending, key)
	if err != nil {
		pr.Fail(err)
		return cluster.Instance{}, performed, err
	}
	pr.Resolve(inst)
	return inst, performed, nil
}

// ready reports whether svc already runs on cl with an endpoint and nothing
// left to pull or create: the state in which run returns at once.
func ready(cl cluster.Cluster, svc *spec.Annotated) bool {
	if !cl.Running(svc.UniqueName) || !cl.HasImages(svc) || !cl.Exists(svc.UniqueName) {
		return false
	}
	_, ok := cl.Endpoint(svc.UniqueName)
	return ok
}

// retryPhase runs one deployment-phase operation with up to
// Config.DeployRetries retries under capped exponential backoff
// (DeployBackoffBase doubling per attempt, capped at deployBackoffMax),
// accounting retry attempts in the record, the controller stats, and the
// per-phase/per-cluster retry counter.
func (d *deployer) retryPhase(p *sim.Proc, rec *DeployRecord, phase string, op func() error) error {
	cfg := &d.ctrl.cfg
	backoff := cfg.DeployBackoffBase
	for attempt := 0; ; attempt++ {
		err := op()
		if err == nil {
			return nil
		}
		if attempt >= cfg.DeployRetries {
			return err
		}
		rec.Retries++
		d.ctrl.Stats.DeployRetries++
		if reg := d.ctrl.reg; reg != nil {
			reg.Counter(`deploy_retries_total{cluster="` + rec.Cluster + `",phase="` + phase + `"}`).Inc()
		}
		if backoff > 0 {
			p.Sleep(backoff)
			backoff = min(2*backoff, deployBackoffMax)
		}
	}
}

// phase wraps retryPhase with a child span whose Attempts is this phase's
// attempt count (the record's Retries delta plus the final attempt).
func (d *deployer) phase(p *sim.Proc, rec *DeployRecord, ref spanRef, name string, op func() error) error {
	tr := d.ctrl.tr
	if tr == nil {
		return d.retryPhase(p, rec, name, op)
	}
	t0 := time.Duration(p.Now())
	r0 := rec.Retries
	err := d.retryPhase(p, rec, name, op)
	s := obs.Span{Parent: ref.parent, Root: ref.root, Name: name, Cat: "deploy",
		Detail: rec.Cluster, Start: t0, End: time.Duration(p.Now()), Attempts: rec.Retries - r0 + 1}
	if err != nil {
		s.Err = err.Error()
	}
	tr.Emit(s)
	return err
}

// probe runs the readiness probing as its own span (a child of the deploy
// span — probing is charged to ReadyWait, not to scale-up work).
func (d *deployer) probe(p *sim.Proc, ref spanRef, inst cluster.Instance) error {
	tr := d.ctrl.tr
	if tr == nil {
		return d.ctrl.probeUntilOpen(p, inst)
	}
	t0 := time.Duration(p.Now())
	err := d.ctrl.probeUntilOpen(p, inst)
	s := obs.Span{Parent: ref.parent, Root: ref.root, Name: "probe", Cat: "deploy",
		Detail: string(inst.Addr), Start: t0, End: time.Duration(p.Now())}
	if err != nil {
		s.Err = err.Error()
	}
	tr.Emit(s)
	return err
}

func (d *deployer) run(p *sim.Proc, cl cluster.Cluster, svc *spec.Annotated, ref spanRef) (cluster.Instance, bool, error) {
	tr := d.ctrl.tr
	// The deploy span encloses the phase spans; allocate its ID up front so
	// children can reference it, and make it the tree root when the caller
	// supplied none (EnsureDeployed, predictor, post-drain redeploy).
	var dID uint64
	if tr != nil {
		dID = tr.NextID()
		if ref.root == 0 {
			ref.root = dID
		}
	}
	child := spanRef{parent: dID, root: ref.root}
	rec := DeployRecord{Service: svc.UniqueName, Cluster: cl.Name(), StartedAt: p.Now()}
	endDeploy := func(errText string) {
		if tr == nil {
			return
		}
		tr.Emit(obs.Span{ID: dID, Parent: ref.parent, Root: ref.root, Name: "deploy", Cat: "deploy",
			Detail: svc.UniqueName + "@" + rec.Cluster, Start: time.Duration(rec.StartedAt),
			End: time.Duration(p.Now()), Attempts: rec.Attempts, Err: errText})
	}
	fail := func(err error) (cluster.Instance, bool, error) {
		rec.Err = err
		rec.Attempts = rec.Retries + 1
		d.ctrl.Stats.DeployFailures++
		if reg := d.ctrl.reg; reg != nil {
			reg.Counter(`deploy_failures_total{cluster="` + rec.Cluster + `"}`).Inc()
		}
		d.ctrl.records = append(d.ctrl.records, rec)
		endDeploy(err.Error())
		return cluster.Instance{}, rec.DidPull || rec.DidCreate || rec.DidScaleUp, err
	}

	alreadyRunning := cl.Running(svc.UniqueName)

	// Phase 1: Pull. The phase duration accumulates across retries; the
	// backoff sleeps between attempts are excluded (they are not pull work).
	if !cl.HasImages(svc) {
		rec.DidPull = true
		if err := d.phase(p, &rec, child, "pull", func() error {
			t0 := p.Now()
			err := cl.Pull(p, svc)
			rec.Pull += time.Duration(p.Now() - t0)
			return err
		}); err != nil {
			return fail(err)
		}
	}
	// Phase 2: Create.
	if !cl.Exists(svc.UniqueName) {
		rec.DidCreate = true
		if err := d.phase(p, &rec, child, "create", func() error {
			t0 := p.Now()
			err := cl.Create(p, svc)
			rec.Create += time.Duration(p.Now() - t0)
			return err
		}); err != nil {
			return fail(err)
		}
	}
	// Phase 3: Scale Up + readiness. One retryable unit: an instance whose
	// port never opens (ErrProbeTimeout) is scaled back down best-effort so
	// the next attempt starts from a clean slate.
	var inst cluster.Instance
	if !alreadyRunning {
		rec.DidScaleUp = true
		if err := d.phase(p, &rec, child, "scale_up", func() error {
			t0 := p.Now()
			in, err := cl.ScaleUp(p, svc.UniqueName)
			rec.ScaleUp += time.Duration(p.Now() - t0)
			if err != nil {
				return err
			}
			// Readiness: probe the instance port from the controller host
			// until it accepts a connection ("the controller continuously
			// tests if the respective port is open").
			t0 = p.Now()
			perr := d.probe(p, child, in)
			rec.ReadyWait += time.Duration(p.Now() - t0)
			if perr != nil {
				_ = cl.ScaleDown(p, svc.UniqueName)
				return perr
			}
			inst = in
			return nil
		}); err != nil {
			return fail(err)
		}
	} else {
		ep, ok := cl.Endpoint(svc.UniqueName)
		if !ok {
			// Scale-up is in flight elsewhere (e.g. the pod is starting);
			// idempotently join it.
			in, err := cl.ScaleUp(p, svc.UniqueName)
			if err != nil {
				return fail(err)
			}
			if err := d.probe(p, child, in); err != nil {
				return fail(err)
			}
			inst = in
		} else {
			inst = ep
		}
	}
	rec.Attempts = rec.Retries + 1
	if rec.DidPull || rec.DidCreate || rec.DidScaleUp {
		d.ctrl.records = append(d.ctrl.records, rec)
		endDeploy("")
		return inst, true, nil
	}
	endDeploy("")
	return inst, false, nil
}
