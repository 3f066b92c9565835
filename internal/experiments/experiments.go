// Package experiments reproduces every table and figure of the paper's
// evaluation (§VI) on the simulated C³ testbed. Each runner builds a fresh
// testbed, drives the corresponding workload, and returns the same
// rows/series the paper reports; benchmarks and the edgesim command print
// them, and EXPERIMENTS.md records paper-vs-measured values.
//
// Index (see DESIGN.md §4):
//
//	Table I — the service/image catalog
//	Fig. 9  — request distribution over 42 services / 5 minutes
//	Fig. 10 — deployment distribution (first contacts)
//	Fig. 11 — scale-up total time, Docker vs Kubernetes, 4 services
//	Fig. 12 — create + scale-up total time
//	Fig. 13 — image pull times, public vs private registry
//	Fig. 14 — readiness wait after scale-up
//	Fig. 15 — readiness wait after create + scale-up
//	Fig. 16 — request time with the instance already running
//	§VII    — the Docker-then-Kubernetes hybrid (ablation)
package experiments

import (
	"fmt"
	"strings"
	"time"

	"transparentedge/internal/catalog"
	"transparentedge/internal/core"
	"transparentedge/internal/metrics"
	"transparentedge/internal/sim"
	"transparentedge/internal/simnet"
	"transparentedge/internal/testbed"
	"transparentedge/internal/workload"
)

// Clusters evaluated in the paper's figures.
var clusterKinds = []string{testbed.KindDocker, testbed.KindKubernetes}

func clusterName(kind string) string {
	if kind == testbed.KindDocker {
		return "egs-docker"
	}
	return "egs-k8s"
}

func clusterLabel(kind string) string {
	if kind == testbed.KindDocker {
		return "Docker"
	}
	return "K8s"
}

// drive runs body as the driver process of the scenario on k until the
// virtual instant until, returns body's error, and closes the kernel: the
// processes the scenario leaves parked (a Kubernetes testbed keeps twenty)
// end with it instead of pinning their goroutines and the testbed for the
// life of the program. What the scenario recorded stays readable.
func drive(k *sim.Kernel, until time.Duration, body func(p *sim.Proc) error) error {
	var err error
	k.Go("driver", func(p *sim.Proc) { err = body(p) })
	k.RunUntil(until)
	k.Close()
	return err
}

// TraceConfig returns the workload configuration used by the trace-driven
// figures. Scale reduces the request volume for quick runs (1 = the paper's
// full 1708-request trace).
func TraceConfig(seed int64, scale float64) workload.Config {
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

// TableIResult is the catalog rendered as Table I.
type TableIResult struct {
	Rows []TableIRow
}

// TableIRow is one Table I line.
type TableIRow struct {
	Service    string
	Images     string
	Size       simnet.Bytes
	Layers     int
	Containers int
	HTTP       string
}

// TableI reproduces Table I from the catalog.
func TableI() TableIResult {
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
	var res TableIResult
	for _, s := range catalog.Services() {
		row := TableIRow{
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
func (r TableIResult) String() string {
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

// TraceResult summarizes figs. 9 and 10.
type TraceResult struct {
	Trace            *workload.Trace
	PerService       []int // requests per service (fig. 9)
	DeploysPerSecond []int // deployments per second (fig. 10)
	MaxDeploysPerSec int
}

// Fig9And10 generates the evaluation trace and its distributions.
func Fig9And10(seed int64) TraceResult {
	tr := workload.Generate(workload.DefaultConfig(seed))
	res := TraceResult{
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
func (r TraceResult) String() string {
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

// ScaleUpResult carries the fig. 11/12 (totals) and fig. 14/15 (readiness
// waits) tables of one study.
type ScaleUpResult struct {
	// Totals is the median client-measured total time of the deployment-
	// triggering first requests: fig. 11 (scale-up only) or fig. 12
	// (create + scale-up).
	Totals *metrics.Table
	// ReadyWait is the median controller-side port-probe wait: fig. 14 or
	// fig. 15.
	ReadyWait *metrics.Table
	// Deployments counts deployments measured per cell.
	Deployments int
	// PreCreated says whether services were created ahead of the run
	// (true = fig. 11/14 conditions, false = fig. 12/15).
	PreCreated bool
}

// ScaleUpStudy replays the evaluation trace once per (service type,
// cluster) pair with images cached, measuring every first request. With
// preCreate, services are also created beforehand so only the Scale Up
// phase runs (fig. 11/14); otherwise Create runs on demand too
// (fig. 12/15). scale in (0,1] shrinks the trace for quick runs.
func ScaleUpStudy(seed int64, preCreate bool, scale float64, options ...Option) (*ScaleUpResult, error) {
	o := applyOpts(options)
	tr := o.attribTracer()
	titleTotals := "Fig. 11 — median total time to scale up (s)"
	titleWait := "Fig. 14 — median wait until ready after scale up"
	if !preCreate {
		titleTotals = "Fig. 12 — median total time to create + scale up (s)"
		titleWait = "Fig. 15 — median wait until ready after create + scale up"
	}
	res := &ScaleUpResult{
		Totals:     metrics.NewTable(titleTotals, "Docker", "K8s"),
		ReadyWait:  metrics.NewTable(titleWait, "Docker", "K8s"),
		PreCreated: preCreate,
	}
	for _, key := range catalog.Keys() {
		cells := map[string]time.Duration{}
		waits := map[string]time.Duration{}
		for _, kind := range clusterKinds {
			tb := testbed.New(testbed.Options{
				Seed:         seed,
				EnableDocker: kind == testbed.KindDocker,
				EnableKube:   kind == testbed.KindKubernetes,
				Trace:        tr,
				Counters:     o.counters,
			})
			wt := workload.Generate(TraceConfig(seed, scale))
			rr, err := workload.ReplayWith(tb, wt, key, workload.Options{
				PrePull: true, PreCreate: preCreate,
				Trace: tr, Counters: o.counters,
			})
			tb.Close()
			if err != nil {
				return nil, fmt.Errorf("%s on %s: %w", key, kind, err)
			}
			if rr.Errors > 0 {
				return nil, fmt.Errorf("%s on %s: %d failed requests", key, kind, rr.Errors)
			}
			cells[clusterLabel(kind)] = rr.FirstRequests.Median()
			wait := metrics.NewSeries("wait")
			for _, rec := range tb.Ctrl.RecordsFor(clusterName(kind), "") {
				if rec.DidScaleUp {
					wait.Add(time.Duration(rec.StartedAt), rec.ReadyWait)
					res.Deployments++
				}
			}
			waits[clusterLabel(kind)] = wait.Median()
		}
		res.Totals.AddRow(key, cells["Docker"], cells["K8s"])
		res.ReadyWait.AddRow(key, waits["Docker"], waits["K8s"])
	}
	o.attrib.EndStream()
	return res, nil
}

// Fig13Pull measures cold image pulls onto the EGS per registry placement:
// the fig. 13 table of total pull time per service from the public
// registries (Docker Hub / GCR) and from the in-network private registry.
func Fig13Pull(seed int64, options ...Option) (*metrics.Table, error) {
	o := applyOpts(options)
	tr := o.attribTracer()
	res := metrics.NewTable(
		"Fig. 13 — total time to pull service images onto the EGS",
		"DockerHub/GCR", "Private")
	for _, key := range catalog.Keys() {
		var cells [2]time.Duration
		for i, private := range []bool{false, true} {
			tb := testbed.New(testbed.Options{
				Seed: seed, EnableDocker: true, UsePrivateRegistry: private,
				Trace: tr, Counters: o.counters,
			})
			a, _, err := tb.RegisterCatalogService(key)
			if err != nil {
				return nil, err
			}
			var d time.Duration
			if err := drive(tb.K, 30*time.Minute, func(p *sim.Proc) error {
				t0 := p.Now()
				err := tb.Docker.Pull(p, a)
				d = p.Now() - t0
				return err
			}); err != nil {
				return nil, err
			}
			cells[i] = d
		}
		res.AddRow(key, cells[0], cells[1])
	}
	o.attrib.EndStream()
	return res, nil
}

// Fig16Warm measures requests against already-running instances: the
// fig. 16 table of request time per service and cluster.
func Fig16Warm(seed int64, requests int, options ...Option) (*metrics.Table, error) {
	o := applyOpts(options)
	tr := o.attribTracer()
	if requests <= 0 {
		requests = 200
	}
	res := metrics.NewTable(
		"Fig. 16 — median total time for requests to running instances",
		"Docker", "K8s")
	for _, key := range catalog.Keys() {
		cells := map[string]time.Duration{}
		for _, kind := range clusterKinds {
			tb := testbed.New(testbed.Options{
				Seed:         seed,
				EnableDocker: kind == testbed.KindDocker,
				EnableKube:   kind == testbed.KindKubernetes,
				Trace:        tr,
				Counters:     o.counters,
			})
			a, reg, err := tb.RegisterCatalogService(key)
			if err != nil {
				return nil, err
			}
			series := metrics.NewSeries(key)
			rerr := drive(tb.K, time.Hour, func(p *sim.Proc) error {
				if _, err := tb.Ctrl.EnsureDeployed(p, clusterName(kind), a.UniqueName); err != nil {
					return err
				}
				// Prime the redirect flow, then measure.
				if _, err := tb.Request(p, 0, reg, key, 0); err != nil {
					return err
				}
				for i := 0; i < requests; i++ {
					cli := i % len(tb.Clients)
					hr, err := tb.Request(p, cli, reg, key, 0)
					if err != nil {
						return err
					}
					series.Add(p.Now(), hr.Total)
					p.Sleep(50 * time.Millisecond) // keep flows warm, spread load
				}
				return nil
			})
			if rerr != nil {
				return nil, rerr
			}
			cells[clusterLabel(kind)] = series.Median()
		}
		res.AddRow(key, cells["Docker"], cells["K8s"])
	}
	o.attrib.EndStream()
	return res, nil
}

// HybridResult compares first-request latency across deployment policies
// (§VII's discussion): pure Docker, pure Kubernetes, and the hybrid
// (Docker answers first, Kubernetes takes over).
type HybridResult struct {
	*metrics.Table
	// KubernetesTookOver reports whether the hybrid's later requests were
	// served by the Kubernetes instance.
	KubernetesTookOver bool
}

// Notes is the line edgesim prints under the table.
func (r *HybridResult) Notes() string {
	return fmt.Sprintf("kubernetes took over future requests: %v\n", r.KubernetesTookOver)
}

// HybridStudy measures the §VII Docker-then-Kubernetes strategy on the
// Nginx service with cached images and pre-created services.
func HybridStudy(seed int64, options ...Option) (*HybridResult, error) {
	o := applyOpts(options)
	tr := o.attribTracer()
	res := &HybridResult{Table: metrics.NewTable(
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
		tb := testbed.New(testbed.Options{
			Seed:         seed,
			EnableDocker: pol.docker,
			EnableKube:   pol.kube,
			Scheduler:    pol.scheduler,
			Trace:        tr,
			Counters:     o.counters,
			// Short switch flows so later requests re-consult the
			// (redirected) FlowMemory.
			SwitchIdleTimeout: 2 * time.Second,
		})
		a, reg, err := tb.RegisterCatalogService(catalog.Nginx)
		if err != nil {
			return nil, err
		}
		var first time.Duration
		tookOver := false
		rerr := drive(tb.K, 30*time.Minute, func(p *sim.Proc) error {
			// Cache images and create everywhere (isolate start times).
			for _, cl := range tb.Ctrl.Clusters() {
				if err := cl.Pull(p, a); err != nil {
					return err
				}
				if err := cl.Create(p, a); err != nil {
					return err
				}
			}
			hr, err := tb.Request(p, 0, reg, catalog.Nginx, 0)
			if err != nil {
				return err
			}
			first = hr.Total
			if pol.name == "hybrid" {
				p.Sleep(30 * time.Second)
				if _, err := tb.Request(p, 0, reg, catalog.Nginx, 0); err != nil {
					return err
				}
				for _, e := range tb.Ctrl.Memory.Entries() {
					if e.Instance.Cluster == "egs-k8s" {
						tookOver = true
					}
				}
			}
			return nil
		})
		if rerr != nil {
			return nil, rerr
		}
		res.Table.AddRow(pol.name, first)
		if pol.name == "hybrid" {
			res.KubernetesTookOver = tookOver
		}
	}
	o.attrib.EndStream()
	return res, nil
}
