// Package experiments reproduces every table and figure of the paper's
// evaluation (§VI), its §VII hybrid and §VIII future work on the simulated
// C³ testbed, plus the ablations and the scale sweeps. Each runner builds
// fresh testbeds, drives the corresponding workload, and returns the same
// rows/series the paper reports. Table lists them all, one row per edgesim
// experiment; EXPERIMENTS.md records paper-vs-measured values.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"transparentedge/internal/catalog"
	"transparentedge/internal/cluster"
	"transparentedge/internal/core"
	"transparentedge/internal/metrics"
	"transparentedge/internal/sim"
	"transparentedge/internal/simnet"
	"transparentedge/internal/spec"
	"transparentedge/internal/testbed"
	"transparentedge/internal/workload"
)

// Clusters evaluated in the paper's figures, in their column order.
var clusterKinds = []string{testbed.KindDocker, testbed.KindKubernetes}

func clusterName(kind string) string {
	if kind == testbed.KindDocker {
		return "egs-docker"
	}
	return "egs-k8s"
}

// drive runs body as the driver process of the scenario on k until the
// virtual instant until, returns body's error, and closes the kernel: the
// processes the scenario leaves parked (those the instant until cut off) end
// with it instead of pinning their goroutines and the testbed for the
// life of the program. What the scenario recorded stays readable.
func drive(k *sim.Kernel, until time.Duration, body func(p *sim.Proc) error) error {
	var err error
	k.Go("driver", func(p *sim.Proc) { err = body(p) })
	k.RunUntil(until)
	k.Close()
	return err
}

// traceConfig returns the workload configuration used by the trace-driven
// figures. Scale reduces the request volume for quick runs (1 = the paper's
// full 1708-request trace).
func traceConfig(seed int64, scale float64) workload.Config {
	cfg := workload.DefaultConfig(seed)
	if scale > 0 && scale < 1 {
		cfg.TotalRequests = int(float64(cfg.TotalRequests) * scale)
		min := cfg.TotalRequests / cfg.Services
		if min < 1 {
			min = 1
		}
		if cfg.MinPerService > min {
			cfg.MinPerService = min
		}
	}
	return cfg
}

// tableIResult is the catalog rendered as Table I.
type tableIResult struct {
	Rows []tableIRow
}

// tableIRow is one Table I line.
type tableIRow struct {
	Service    string
	Images     string
	Size       simnet.Bytes
	Layers     int
	Containers int
	HTTP       string
}

// tableI reproduces Table I from the catalog.
func tableI() tableIResult {
	imgInfo := map[string]struct {
		size   simnet.Bytes
		layers int
	}{}
	for _, img := range catalog.Images() {
		imgInfo[img.Ref] = struct {
			size   simnet.Bytes
			layers int
		}{img.TotalSize(), len(img.Layers)}
	}
	var res tableIResult
	for _, s := range catalog.Services() {
		row := tableIRow{
			Service:    s.Key,
			Images:     strings.Join(s.Images, " + "),
			Containers: s.Containers,
			HTTP:       s.HTTPMethod,
		}
		for _, ref := range s.Images {
			row.Size += imgInfo[ref].size
			row.Layers += imgInfo[ref].layers
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// String renders Table I.
func (r tableIResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table I — Edge services\n")
	fmt.Fprintf(&b, "%-10s %-60s %14s %7s %11s %6s\n", "Service", "Image(s)", "Size", "Layers", "Containers", "HTTP")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10s %-60s %14s %7d %11d %6s\n",
			row.Service, row.Images, formatBytes(row.Size), row.Layers, row.Containers, row.HTTP)
	}
	return b.String()
}

func formatBytes(v simnet.Bytes) string {
	switch {
	case v >= simnet.MiB:
		return fmt.Sprintf("%.0f MiB", float64(v)/float64(simnet.MiB))
	case v >= simnet.KiB:
		return fmt.Sprintf("%.2f KiB", float64(v)/float64(simnet.KiB))
	}
	return fmt.Sprintf("%d B", v)
}

// traceResult summarizes figs. 9 and 10.
type traceResult struct {
	Trace            *workload.Trace
	PerService       []int // requests per service (fig. 9)
	DeploysPerSecond []int // deployments per second (fig. 10)
	MaxDeploysPerSec int
}

// fig9And10 generates the evaluation trace and its distributions.
func fig9And10(seed int64) traceResult {
	tr := workload.Generate(workload.DefaultConfig(seed))
	res := traceResult{
		Trace:            tr,
		PerService:       tr.RequestsPerService(),
		DeploysPerSecond: tr.DeploymentsPerSecond(),
	}
	for _, n := range res.DeploysPerSecond {
		if n > res.MaxDeploysPerSec {
			res.MaxDeploysPerSec = n
		}
	}
	return res
}

// String renders the fig. 9/10 summary.
func (r traceResult) String() string {
	var b strings.Builder
	total := 0
	min, max := 1<<30, 0
	for _, c := range r.PerService {
		total += c
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	fmt.Fprintf(&b, "Fig. 9 — %d requests to %d services over %v (min %d, max %d per service)\n",
		total, len(r.PerService), r.Trace.Config.Duration, min, max)
	fmt.Fprintf(&b, "Fig. 10 — 42 deployments, up to %d per second in the early burst\n", r.MaxDeploysPerSec)
	return b.String()
}

// scaleUpResult carries the fig. 11/12 (totals) and fig. 14/15 (readiness
// waits) tables of one study.
type scaleUpResult struct {
	// Totals is the median client-measured total time of the deployment-
	// triggering first requests: fig. 11 (scale-up only) or fig. 12
	// (create + scale-up).
	Totals *metrics.Table
	// ReadyWait is the median controller-side port-probe wait: fig. 14 or
	// fig. 15.
	ReadyWait *metrics.Table
}

// scaleUpStudy replays the evaluation trace once per (service type,
// cluster) pair with images cached, measuring every first request. With
// preCreate, services are also created beforehand so only the Scale Up
// phase runs (fig. 11/14); otherwise Create runs on demand too
// (fig. 12/15). p.Scale in (0,1] shrinks the trace for quick runs.
func scaleUpStudy(p Params, preCreate bool) (scaleUpResult, error) {
	tr := attribTracer(p.Trace, p.Attrib)
	titleTotals := "Fig. 11 — median total time to scale up (s)"
	titleWait := "Fig. 14 — median wait until ready after scale up"
	if !preCreate {
		titleTotals = "Fig. 12 — median total time to create + scale up (s)"
		titleWait = "Fig. 15 — median wait until ready after create + scale up"
	}
	res := scaleUpResult{
		Totals:    metrics.NewTable(titleTotals, "Docker", "K8s"),
		ReadyWait: metrics.NewTable(titleWait, "Docker", "K8s"),
	}
	for _, key := range catalog.Keys() {
		var cells, waits [2]time.Duration
		for i, kind := range clusterKinds {
			tb := testbed.New(testbed.Options{
				Seed:         p.Seed,
				EnableDocker: kind == testbed.KindDocker,
				EnableKube:   kind == testbed.KindKubernetes,
				Trace:        tr,
				Counters:     p.Counters,
			})
			wt := workload.Generate(traceConfig(p.Seed, p.Scale))
			rr, err := workload.ReplayWith(tb, wt, key, workload.Options{
				PrePull: true, PreCreate: preCreate,
				Trace: tr, Counters: p.Counters,
			})
			tb.Close()
			if err != nil {
				return scaleUpResult{}, fmt.Errorf("%s on %s: %w", key, kind, err)
			}
			if rr.Errors > 0 {
				return scaleUpResult{}, fmt.Errorf("%s on %s: %d failed requests", key, kind, rr.Errors)
			}
			cells[i] = rr.FirstRequests.Median()
			wait := metrics.NewSeries("wait")
			for _, rec := range tb.Ctrl.RecordsFor(clusterName(kind), "") {
				if rec.DidScaleUp {
					wait.Add(time.Duration(rec.StartedAt), rec.ReadyWait)
				}
			}
			waits[i] = wait.Median()
		}
		res.Totals.AddRow(key, cells[0], cells[1])
		res.ReadyWait.AddRow(key, waits[0], waits[1])
	}
	p.Attrib.EndStream()
	return res, nil
}

// scenario is a scripted run on a testbed with one catalog service
// registered: the steps its script takes as the driver process.
type scenario struct {
	tb  *testbed.Testbed
	a   *spec.Annotated
	reg spec.Registration
	key string
	p   *sim.Proc
}

// script builds a testbed from o, registers the catalog service key on it
// and drives body as the scenario until the virtual instant until (see
// drive). It returns body's error and the closed testbed, whose recorded
// state stays readable.
func script(o testbed.Options, key string, until time.Duration, body func(s *scenario) error) (*testbed.Testbed, error) {
	tb := testbed.New(o)
	a, reg, err := tb.RegisterCatalogService(key)
	if err != nil {
		tb.Close()
		return tb, err
	}
	s := &scenario{tb: tb, a: a, reg: reg, key: key}
	return tb, drive(tb.K, until, func(p *sim.Proc) error {
		s.p = p
		return body(s)
	})
}

// request sends one request from client cli and returns its total time.
func (s *scenario) request(cli int) (time.Duration, error) {
	hr, err := s.tb.Request(s.p, cli, s.reg, s.key, 0)
	if err != nil {
		return 0, err
	}
	return hr.Total, nil
}

// prepare pulls the service's images onto every cluster and, with create,
// creates the service there too, so that a request pays only the rest.
func (s *scenario) prepare(create bool) error {
	for _, cl := range s.tb.Ctrl.Clusters() {
		if err := cl.Pull(s.p, s.a); err != nil {
			return err
		}
		if create {
			if err := cl.Create(s.p, s.a); err != nil {
				return err
			}
		}
	}
	return nil
}

// warm creates the service on cl and scales it up, then lets it settle.
func (s *scenario) warm(cl cluster.Cluster) error {
	if err := cl.Create(s.p, s.a); err != nil {
		return err
	}
	if _, err := cl.ScaleUp(s.p, s.a.UniqueName); err != nil {
		return err
	}
	s.p.Sleep(time.Second)
	return nil
}

// fig13Pull measures cold image pulls onto the EGS per registry placement:
// the fig. 13 table of total pull time per service from the public
// registries (Docker Hub / GCR) and from the in-network private registry.
func fig13Pull(p Params) (*metrics.Table, error) {
	tr := attribTracer(p.Trace, p.Attrib)
	res := metrics.NewTable(
		"Fig. 13 — total time to pull service images onto the EGS",
		"DockerHub/GCR", "Private")
	for _, key := range catalog.Keys() {
		var cells [2]time.Duration
		for i, private := range []bool{false, true} {
			if _, err := script(testbed.Options{
				Seed: p.Seed, EnableDocker: true, UsePrivateRegistry: private,
				Trace: tr, Counters: p.Counters,
			}, key, 30*time.Minute, func(s *scenario) error {
				t0 := s.p.Now()
				err := s.tb.Docker.Pull(s.p, s.a)
				cells[i] = s.p.Now() - t0
				return err
			}); err != nil {
				return nil, err
			}
		}
		res.AddRow(key, cells[0], cells[1])
	}
	p.Attrib.EndStream()
	return res, nil
}

// fig16Warm measures requests against already-running instances: the
// fig. 16 table of request time per service and cluster.
func fig16Warm(p Params) (*metrics.Table, error) {
	tr := attribTracer(p.Trace, p.Attrib)
	res := metrics.NewTable(
		"Fig. 16 — median total time for requests to running instances",
		"Docker", "K8s")
	for _, key := range catalog.Keys() {
		var cells [2]time.Duration
		for i, kind := range clusterKinds {
			series := metrics.NewSeries(key)
			if _, err := script(testbed.Options{
				Seed:         p.Seed,
				EnableDocker: kind == testbed.KindDocker,
				EnableKube:   kind == testbed.KindKubernetes,
				Trace:        tr,
				Counters:     p.Counters,
			}, key, time.Hour, func(s *scenario) error {
				if _, err := s.tb.Ctrl.EnsureDeployed(s.p, clusterName(kind), s.a.UniqueName); err != nil {
					return err
				}
				// Prime the redirect flow, then measure.
				if _, err := s.request(0); err != nil {
					return err
				}
				for i := 0; i < p.Requests; i++ {
					d, err := s.request(i % len(s.tb.Clients))
					if err != nil {
						return err
					}
					series.Add(s.p.Now(), d)
					s.p.Sleep(50 * time.Millisecond) // keep flows warm, spread load
				}
				return nil
			}); err != nil {
				return nil, err
			}
			cells[i] = series.Median()
		}
		res.AddRow(key, cells[0], cells[1])
	}
	p.Attrib.EndStream()
	return res, nil
}

// hybridResult compares first-request latency across deployment policies
// (§VII's discussion): pure Docker, pure Kubernetes, and the hybrid
// (Docker answers first, Kubernetes takes over).
type hybridResult struct {
	*metrics.Table
	// KubernetesTookOver reports whether the hybrid's later requests were
	// served by the Kubernetes instance.
	KubernetesTookOver bool
}

// hybridStudy measures the §VII Docker-then-Kubernetes strategy on the
// Nginx service with cached images and pre-created services.
func hybridStudy(p Params) (hybridResult, error) {
	tr := attribTracer(p.Trace, p.Attrib)
	res := hybridResult{Table: metrics.NewTable(
		"§VII — first-request total time by policy (nginx, images cached)",
		"first request")}
	type policy struct {
		name      string
		docker    bool
		kube      bool
		scheduler core.GlobalScheduler
	}
	policies := []policy{
		{"docker-only", true, false, core.WaitNearestScheduler{}},
		{"k8s-only", false, true, core.WaitNearestScheduler{}},
		{"hybrid", true, true, core.DockerFirstScheduler{}},
	}
	for _, pol := range policies {
		var first time.Duration
		if _, err := script(testbed.Options{
			Seed:         p.Seed,
			EnableDocker: pol.docker,
			EnableKube:   pol.kube,
			Scheduler:    pol.scheduler,
			Trace:        tr,
			Counters:     p.Counters,
			// Short switch flows so later requests re-consult the
			// (redirected) FlowMemory.
			SwitchIdleTimeout: 2 * time.Second,
		}, catalog.Nginx, 30*time.Minute, func(s *scenario) error {
			// Cache images and create everywhere (isolate start times).
			if err := s.prepare(true); err != nil {
				return err
			}
			var err error
			if first, err = s.request(0); err != nil {
				return err
			}
			if pol.name != "hybrid" {
				return nil
			}
			s.p.Sleep(30 * time.Second)
			if _, err := s.request(0); err != nil {
				return err
			}
			for _, e := range s.tb.Ctrl.Memory.Entries() {
				if e.Instance.Cluster == "egs-k8s" {
					res.KubernetesTookOver = true
				}
			}
			return nil
		}); err != nil {
			return hybridResult{}, err
		}
		res.Table.AddRow(pol.name, first)
	}
	p.Attrib.EndStream()
	return res, nil
}
