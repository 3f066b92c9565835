// Command edgesim runs the paper's evaluation experiments on the simulated
// C³ testbed and prints the tables and series of each figure.
//
// Usage:
//
//	edgesim [-seed N] [-scale F] [-requests N] <experiment>
//
// Experiments: table1, fig9, fig10, fig11, fig12, fig13, fig14, fig15,
// fig16, hybrid, all.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	edge "transparentedge"
)

var (
	seed     = flag.Int64("seed", 42, "simulation seed (runs are deterministic per seed)")
	scale    = flag.Float64("scale", 1, "trace scale in (0,1] for the trace-driven figures")
	requests = flag.Int("requests", 200, "warm requests per service for fig16")
	asCSV    = flag.Bool("csv", false, "emit tables as CSV (milliseconds) instead of text")
	clusters = flag.Int("clusters", 16, "edge cluster count for scale-dispatch")
	clients  = flag.Int("clients", 2000, "one-shot client count for scale-churn")
	serial   = flag.Bool("serial", false, "scale-dispatch: serial per-cluster state queries (the paper's original dispatcher)")

	replayRequests = flag.Int("replay-requests", 10000, "trace length for scale-replay, scale-shard and scale-steer")
	steerBackend   = flag.String("backend", "both", "scale-steer: steering backend to sweep (openflow, srv6, both)")
	shards         = flag.Int("shards", 1, "scale-shard: kernel count for the sharded multi-region replay (1 = serial)")

	procs      = flag.Int("procs", 0, "worker/CPU bound for sweep and the scale-* experiments (0 = all cores)")
	asJSON     = flag.Bool("json", false, "sweep/scale-*: emit the uniform JSON result shape instead of text")
	sweepSeeds = flag.Int("sweep-seeds", 4, "sweep: number of seeds (variants = seeds x 2 waiting modes)")
	sweepReqs  = flag.Int("sweep-requests", 2000, "sweep: requests per variant")

	faultRates = flag.String("fault-rates", "0,0.1,0.3,0.5", "scale-faults: comma-separated injected fault rates in [0,1)")

	traceFile    = flag.String("trace", "", "write the run's spans as a Chrome trace-event file (open in ui.perfetto.dev)")
	showCounters = flag.Bool("counters", false, "collect obs counters: Prometheus text on stdout (with -json, a counters block in the result)")

	attribOn  = flag.Bool("attrib", false, "attach the latency-attribution engine: critical-path phase breakdown on stdout (with -json, an attrib_* block in the result)")
	flameFile = flag.String("flame", "", "write the run's virtual-time flame graph to `file` (implies -attrib; .pb.gz/.pprof selects the pprof proto, anything else collapsed stacks)")
	sloSpecs  = flag.String("slo", "", "comma-separated latency SLOs over root spans, e.g. request:p99=2ms (implies -attrib; first breach per objective dumps the flight recorder)")
	sloDump   = flag.String("slo-dump", "", "write the first SLO breach's flight-recorder span trees as a Chrome trace-event file")

	cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to `file` (works with every experiment)")
	memProfile = flag.String("memprofile", "", "write a pprof allocation profile of the run to `file` (works with every experiment)")
)

// startProfiles starts -cpuprofile collection and returns the stop function
// that finalizes both profile files. stop must run exactly once, after the
// experiment: the CPU profile covers the whole run, and the allocation
// profile is written at the end (pprof "allocs" keeps cumulative totals, so
// alloc_space covers the run too, while inuse_space reflects the final live
// set after a forced GC).
func startProfiles() (stop func() error, err error) {
	var cpuF *os.File
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpuF = f
	}
	return func() error {
		if cpuF != nil {
			pprof.StopCPUProfile()
			if err := cpuF.Close(); err != nil {
				return err
			}
		}
		if *memProfile != "" {
			f, err := os.Create(*memProfile)
			if err != nil {
				return err
			}
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		}
		return nil
	}, nil
}

// obsRun bundles the -trace / -counters / -attrib wiring of one edgesim
// invocation: a tracer streaming into a Chrome trace-event file, a counter
// registry, and/or a latency-attribution collector. The zero handles mean
// "off" end to end (the library's nil-sink zero-cost path).
type obsRun struct {
	tracer *edge.Tracer
	reg    *edge.CounterRegistry
	cw     *edge.ChromeTraceWriter
	f      *os.File
	col    *edge.AttribCollector
}

// attribRequested says whether any of the attribution flags is set (-flame
// and -slo imply -attrib).
func attribRequested() bool {
	return *attribOn || *flameFile != "" || *sloSpecs != "" || *sloDump != ""
}

func newObsRun() (*obsRun, error) {
	o := &obsRun{}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			return nil, err
		}
		o.f = f
		o.cw = edge.NewChromeTraceWriter(f)
		// A small ring suffices: the sink streams every span to disk.
		o.tracer = edge.NewTracer(1024)
		o.tracer.SetSink(o.cw.Emit)
	}
	if *showCounters {
		o.reg = edge.NewCounterRegistry()
	}
	if attribRequested() {
		slos, err := edge.ParseSLOs(*sloSpecs)
		if err != nil {
			return nil, err
		}
		dumped := false
		o.col = edge.NewAttribCollector(edge.AttribOptions{
			SLOs: slos,
			OnBreach: func(b edge.AttribBreach) {
				fmt.Fprintf(os.Stderr, "edgesim: SLO BREACH %v on %q: observed %v over %d samples (%d trees in flight recorder)\n",
					b.SLO, b.Root, b.Observed, b.Samples, len(b.Trees))
				if *sloDump == "" || dumped {
					return
				}
				dumped = true
				if err := writeBreachDump(*sloDump, b); err != nil {
					fmt.Fprintf(os.Stderr, "edgesim: slo-dump: %v\n", err)
				}
			},
		})
	}
	return o, nil
}

// writeBreachDump flattens a breach's flight-recorder trees into one Chrome
// trace-event file (the newest tree is the one that tipped the objective).
func writeBreachDump(path string, b edge.AttribBreach) error {
	var spans []edge.Span
	for _, tree := range b.Trees {
		spans = append(spans, tree...)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := edge.WriteChromeTrace(f, spans); err != nil {
		f.Close()
		return err
	}
	fmt.Fprintf(os.Stderr, "edgesim: wrote %d flight-recorder spans to %s\n", len(spans), path)
	return f.Close()
}

// options returns the experiment options for the enabled sinks.
func (o *obsRun) options() []edge.ExperimentOption {
	var opts []edge.ExperimentOption
	if o.tracer != nil {
		opts = append(opts, edge.WithTrace(o.tracer))
	}
	if o.reg != nil {
		opts = append(opts, edge.WithCounters(o.reg))
	}
	if o.col != nil {
		opts = append(opts, edge.WithAttrib(o.col))
	}
	return opts
}

// attribJSON merges the attribution block into a JSON result's metric map.
func (o *obsRun) attribJSON(out *edge.ExperimentJSON) {
	if o.col != nil {
		edge.AttribReportMetrics(out.Metrics, o.col.Report())
	}
}

// warnOwnObs notes that a sweep-style experiment owns its obs handles, so
// the attribution flags cannot be honored for it.
func (o *obsRun) warnOwnObs(which string) {
	if o.col != nil {
		fmt.Fprintf(os.Stderr, "edgesim: %s runs its own per-point collectors; -attrib/-flame/-slo are ignored\n", which)
	}
}

// finish closes the trace file (if any), writes the flame graph, and, in
// text mode, prints the attribution summary and the counter snapshot as
// Prometheus text.
func (o *obsRun) finish(printText bool) error {
	if o.cw != nil {
		if err := o.cw.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "edgesim: wrote %d trace events to %s\n", o.cw.Events(), *traceFile)
		if err := o.f.Close(); err != nil {
			return err
		}
	}
	if o.col != nil {
		rep := o.col.Report()
		if *flameFile != "" {
			if err := writeFlame(*flameFile, rep); err != nil {
				return err
			}
		}
		if printText {
			fmt.Print(rep.Summary())
		}
	}
	if o.reg != nil && printText {
		return edge.WritePrometheusText(os.Stdout, o.reg)
	}
	return nil
}

// writeFlame exports the report's flame graph: gzipped pprof proto for
// .pb.gz / .pprof paths (go tool pprof -http), collapsed stacks otherwise
// (flamegraph.pl, speedscope).
func writeFlame(path string, rep *edge.AttribReport) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".pb.gz") || strings.HasSuffix(path, ".pprof") {
		err = rep.WritePprof(f)
	} else {
		err = rep.WriteFolded(f)
	}
	if err != nil {
		f.Close()
		return err
	}
	fmt.Fprintf(os.Stderr, "edgesim: wrote flame graph (%d stacks, %d trees) to %s\n",
		len(rep.Folded), rep.Trees, path)
	return f.Close()
}

// maxShards bounds -shards: the scenario has only DefaultRegions+1 = 9
// domains, so more kernels than that can never help; 64 leaves headroom if
// the region count grows, while still rejecting nonsense values early.
const maxShards = 64

// validateShards checks the -shards flag. Results are bit-identical at
// every accepted value, so the only invalid inputs are structural.
func validateShards(n int) error {
	if n < 1 {
		return fmt.Errorf("-shards must be >= 1 (got %d); 1 is the serial case", n)
	}
	if n > maxShards {
		return fmt.Errorf("-shards %d exceeds the maximum %d", n, maxShards)
	}
	return nil
}

// validateCounts checks the size flags. Each sizes a generated workload, so
// a value below 1 has no meaning; the experiments used to clamp such values
// to their own minimum and run anyway (-replay-requests -5 replayed 16
// requests and exited 0).
func validateCounts(replayRequests, sweepRequests, clients, clusters int) error {
	for _, f := range []struct {
		name string
		n    int
	}{
		{"-replay-requests", replayRequests},
		{"-sweep-requests", sweepRequests},
		{"-clients", clients},
		{"-clusters", clusters},
	} {
		if f.n < 1 {
			return fmt.Errorf("%s must be >= 1 (got %d)", f.name, f.n)
		}
	}
	return nil
}

// parseBackends maps the -backend flag to the steering backends scale-steer
// sweeps: a single backend, or both for the side-by-side comparison.
func parseBackends(s string) ([]string, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "both", "all":
		return nil, nil // all built-in backends
	case "openflow":
		return []string{"openflow"}, nil
	case "srv6", "srsteer":
		return []string{"srv6"}, nil
	default:
		return nil, fmt.Errorf("unknown steering backend %q (want openflow, srv6, or both)", s)
	}
}

// parseRates parses the -fault-rates flag.
func parseRates(s string) ([]float64, error) {
	var rates []float64
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		r, err := strconv.ParseFloat(f, 64)
		if err != nil || r < 0 || r >= 1 {
			return nil, fmt.Errorf("bad fault rate %q (want [0,1))", f)
		}
		rates = append(rates, r)
	}
	if len(rates) == 0 {
		return nil, fmt.Errorf("no fault rates in %q", s)
	}
	return rates, nil
}

// emitJSON writes any result in the shared JSON shape to stdout.
func emitJSON(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func printTable(t interface {
	String() string
	CSV() string
}) {
	if *asCSV {
		fmt.Print(t.CSV())
		return
	}
	fmt.Print(t.String())
}

func main() {
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() != 1 {
		usage()
		os.Exit(2)
	}
	if err := validateCounts(*replayRequests, *sweepReqs, *clients, *clusters); err != nil {
		fmt.Fprintf(os.Stderr, "edgesim: %v\nrun 'edgesim -h' for usage\n", err)
		os.Exit(2)
	}
	which := strings.ToLower(flag.Arg(0))
	if err := run(which); err != nil {
		fmt.Fprintln(os.Stderr, "edgesim:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: edgesim [flags] <experiment>

Experiments (each reproduces one table/figure of the paper):
  table1   Table I  — the four edge services and their images
  fig9     Fig. 9   — request distribution (1708 requests / 42 services)
  fig10    Fig. 10  — deployment distribution over five minutes
  fig11    Fig. 11  — scale-up total time, Docker vs Kubernetes
  fig12    Fig. 12  — create + scale-up total time
  fig13    Fig. 13  — image pull times, public vs private registry
  fig14    Fig. 14  — readiness wait after scale-up
  fig15    Fig. 15  — readiness wait after create + scale-up
  fig16    Fig. 16  — request time with running instances
  hybrid   §VII     — Docker-first hybrid deployment
  serverless        §VIII future work: WASM cold start vs containers
  ablation-memory   FlowMemory on/off for returning clients
  ablation-timeout  switch idle-timeout sweep
  ablation-policy   with-waiting vs no-wait vs hybrid
  ablation-proactive on-demand vs EWMA-predicted proactive deployment
  ablation-probe    readiness-probe interval sweep
  ablation-hierarchy fig. 3: cold vs far-warm vs near-warm first request
  scale-dispatch    dispatch latency vs cluster count (-clusters, -serial)
  scale-churn       controller-state bounds under client churn (-clients)
  scale-replay      large-trace replay cost (-replay-requests)
  scale-shard       sharded multi-region replay (-replay-requests, -shards;
                    fingerprints are bit-identical at every shard count)
  scale-steer       steering backend comparison: per-flow openflow rules vs
                    stateless SRv6-style ingress encoding over a client-count
                    axis (-replay-requests, -backend, -json)
  scale-mobility    handover comparison under client mobility: continuity gap
                    and flow-mod churn per backend across handover rates, with
                    sharded fingerprint parity (-replay-requests, -backend)
  scale-attrib      latency attribution sweep: per-phase dispatch breakdown,
                    openflow vs srv6 across the client axis, plus the
                    attribution determinism gates at shards 1/2/4/8
                    (-replay-requests, -json)
  sweep             parallel with/without-waiting sweep across seeds
                    (-sweep-seeds, -sweep-requests, -procs, -json)
  scale-faults      deterministic fault-injection sweep: retries, next-best
                    fallback, and cloud fallback under increasing fault
                    rates (-fault-rates, -sweep-requests, -procs, -json)
  all      run everything

Flags:
`)
	flag.PrintDefaults()
}

// run wraps one invocation's experiment(s) in the optional -cpuprofile /
// -memprofile collection; profiling is started once even when the
// experiment is "all".
func run(which string) error {
	stopProfiles, err := startProfiles()
	if err != nil {
		return err
	}
	if err := runExperiment(which); err != nil {
		stopProfiles()
		return err
	}
	return stopProfiles()
}

func runExperiment(which string) error {
	if which == "all" {
		if *traceFile != "" {
			return fmt.Errorf("-trace needs a single experiment (it writes one trace file)")
		}
		if *flameFile != "" || *sloDump != "" {
			return fmt.Errorf("-flame/-slo-dump need a single experiment (they write one file)")
		}
		for _, w := range []string{"table1", "fig9", "fig10", "fig11", "fig12",
			"fig13", "fig14", "fig15", "fig16", "hybrid", "serverless",
			"ablation-memory", "ablation-timeout", "ablation-policy", "ablation-proactive", "ablation-probe", "ablation-hierarchy",
			"scale-dispatch", "scale-churn", "scale-replay", "scale-shard", "scale-steer", "scale-mobility", "scale-attrib"} {
			if err := runExperiment(w); err != nil {
				return fmt.Errorf("%s: %w", w, err)
			}
			fmt.Println()
		}
		return nil
	}
	o, err := newObsRun()
	if err != nil {
		return err
	}
	switch which {
	case "table1":
		fmt.Print(edge.RunTableI().String())
	case "fig9", "fig10":
		res := edge.RunFig9And10(*seed)
		fmt.Print(res.String())
		if which == "fig9" {
			printHistogram("requests/s", res.Trace.RequestsPerSecond(), 10)
		} else {
			printHistogram("deployments/s", res.DeploysPerSecond, 1)
		}
	case "fig11", "fig14":
		res, err := edge.RunScaleUpStudy(*seed, true, *scale, o.options()...)
		if err != nil {
			return err
		}
		if which == "fig11" {
			printTable(res.Totals)
		} else {
			printTable(res.ReadyWait)
		}
	case "fig12", "fig15":
		res, err := edge.RunScaleUpStudy(*seed, false, *scale, o.options()...)
		if err != nil {
			return err
		}
		if which == "fig12" {
			printTable(res.Totals)
		} else {
			printTable(res.ReadyWait)
		}
	case "fig13":
		res, err := edge.RunFig13Pull(*seed, o.options()...)
		if err != nil {
			return err
		}
		printTable(res.Table)
	case "fig16":
		res, err := edge.RunFig16Warm(*seed, *requests, o.options()...)
		if err != nil {
			return err
		}
		printTable(res.Table)
	case "hybrid":
		res, err := edge.RunHybridStudy(*seed, o.options()...)
		if err != nil {
			return err
		}
		printTable(res.Table)
		fmt.Printf("kubernetes took over future requests: %v\n", res.KubernetesTookOver)
	case "serverless":
		res, err := edge.RunFutureWorkServerless(*seed)
		if err != nil {
			return err
		}
		printTable(res.Table)
	case "ablation-memory":
		res, err := edge.RunAblationFlowMemory(*seed)
		if err != nil {
			return err
		}
		printTable(res.Table)
		fmt.Printf("packet-ins: with memory %d, without %d\n", res.PacketInsWith, res.PacketInsWithout)
	case "ablation-timeout":
		res, err := edge.RunAblationIdleTimeout(*seed, nil)
		if err != nil {
			return err
		}
		printTable(res.Table)
		fmt.Printf("packet-ins per setting: %v, peak flow rules: %v\n", res.PacketIns, res.FlowTableSizes)
	case "ablation-policy":
		res, err := edge.RunAblationWaitingPolicy(*seed)
		if err != nil {
			return err
		}
		printTable(res.Table)
	case "ablation-hierarchy":
		res, err := edge.RunAblationHierarchy(*seed)
		if err != nil {
			return err
		}
		printTable(res.Table)
	case "ablation-probe":
		res, err := edge.RunAblationProbeInterval(*seed, nil)
		if err != nil {
			return err
		}
		printTable(res.Table)
	case "ablation-proactive":
		res, err := edge.RunAblationProactive(*seed)
		if err != nil {
			return err
		}
		printTable(res.Table)
		fmt.Printf("proactive deployments: %d\n", res.ProactiveDeployments)
	case "scale-dispatch":
		limitProcs()
		if *asJSON {
			out := []edge.ExperimentJSON{
				edge.RunDispatchScale(*seed, 1, *serial, o.options()...).JSON(),
				edge.RunDispatchScale(*seed, *clusters, *serial, o.options()...).JSON(),
			}
			// The registry accumulates over both runs; attach the final
			// snapshot to the last entry.
			out[len(out)-1].Counters = o.reg.Map()
			o.attribJSON(&out[len(out)-1])
			if err := o.finish(false); err != nil {
				return err
			}
			return emitJSON(out)
		}
		fmt.Println(edge.RunDispatchScale(*seed, 1, *serial, o.options()...).String())
		fmt.Println(edge.RunDispatchScale(*seed, *clusters, *serial, o.options()...).String())
		if !*serial {
			// Show the paper's original serial dispatcher for comparison.
			fmt.Println(edge.RunDispatchScale(*seed, *clusters, true, o.options()...).String())
		}
	case "scale-churn":
		limitProcs()
		if *asJSON {
			out := edge.RunCookieChurn(*seed, *clients, o.options()...).JSON()
			out.Counters = o.reg.Map()
			o.attribJSON(&out)
			if err := o.finish(false); err != nil {
				return err
			}
			return emitJSON(out)
		}
		fmt.Print(edge.RunCookieChurn(*seed, *clients, o.options()...).String())
	case "scale-replay":
		limitProcs()
		if *asJSON {
			out := edge.RunReplayScale(*seed, *replayRequests, o.options()...).JSON()
			o.attribJSON(&out)
			if err := o.finish(false); err != nil {
				return err
			}
			return emitJSON(out)
		}
		res := edge.RunReplayScale(*seed, *replayRequests, o.options()...)
		fmt.Print(res.String())
		if *showCounters {
			fmt.Printf("  kernel           %s\n", res.Kernel)
		}
	case "scale-shard":
		if err := validateShards(*shards); err != nil {
			return err
		}
		limitProcs()
		if *asJSON {
			out := edge.RunReplayShard(*seed, *replayRequests, *shards, nil, o.options()...).JSON()
			o.attribJSON(&out)
			if err := o.finish(false); err != nil {
				return err
			}
			return emitJSON(out)
		}
		fmt.Print(edge.RunReplayShard(*seed, *replayRequests, *shards, nil, o.options()...).String())
	case "scale-steer":
		backends, err := parseBackends(*steerBackend)
		if err != nil {
			return err
		}
		limitProcs()
		o.warnOwnObs(which)
		if *asJSON {
			out := edge.RunSteerSweep(*seed, *replayRequests, backends, o.options()...).JSON()
			if err := o.finish(false); err != nil {
				return err
			}
			return emitJSON(out)
		}
		fmt.Print(edge.RunSteerSweep(*seed, *replayRequests, backends, o.options()...).String())
	case "scale-mobility":
		backends, err := parseBackends(*steerBackend)
		if err != nil {
			return err
		}
		limitProcs()
		o.warnOwnObs(which)
		if *asJSON {
			out := edge.RunMobilitySweep(*seed, *replayRequests, backends, o.options()...).JSON()
			if err := o.finish(false); err != nil {
				return err
			}
			return emitJSON(out)
		}
		fmt.Print(edge.RunMobilitySweep(*seed, *replayRequests, backends, o.options()...).String())
	case "scale-attrib":
		limitProcs()
		o.warnOwnObs(which)
		if *asJSON {
			out := edge.RunAttribSweep(*seed, *replayRequests).JSON()
			if err := o.finish(false); err != nil {
				return err
			}
			return emitJSON(out)
		}
		fmt.Print(edge.RunAttribSweep(*seed, *replayRequests).String())
	case "sweep":
		vs := edge.WaitingSweepVariants(*sweepSeeds, *sweepReqs)
		attachVariantObs(vs, o)
		res := edge.RunSweep(vs, *procs)
		drainVariantObs(vs, o)
		if *asJSON {
			out := res.JSON()
			o.attribJSON(&out[len(out)-1])
			if err := o.finish(false); err != nil {
				return err
			}
			return emitJSON(out)
		}
		fmt.Print(res.String())
		if err := printVariantCounters(vs); err != nil {
			return err
		}
	case "scale-faults":
		rates, err := parseRates(*faultRates)
		if err != nil {
			return err
		}
		vs := edge.FaultSweepVariants(*seed, *sweepReqs, rates)
		attachVariantObs(vs, o)
		res := edge.FaultSweepResult{SweepResult: edge.RunSweep(vs, *procs)}
		drainVariantObs(vs, o)
		if *asJSON {
			out := res.JSON()
			o.attribJSON(&out[len(out)-1])
			if err := o.finish(false); err != nil {
				return err
			}
			return emitJSON(out)
		}
		fmt.Print(res.String())
		if err := printVariantCounters(vs); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown experiment %q", which)
	}
	return o.finish(true)
}

// attachVariantObs gives each sweep variant its own tracer and registry:
// the types are concurrency-safe, but sharing a span ring or an in-flight
// gauge across parallel variants would make their contents depend on worker
// interleaving. The attribution collector needs the variant tracers too —
// it is fed from them after the sweep, in variant order.
func attachVariantObs(vs []edge.SweepVariant, o *obsRun) {
	for i := range vs {
		if o.tracer != nil || o.col != nil {
			vs[i].Trace = edge.NewTracer(0)
		}
		if o.reg != nil {
			vs[i].Counters = edge.NewCounterRegistry()
		}
	}
}

// drainVariantObs streams every variant's retained spans into the shared
// trace file and the attribution collector in variant order, so both are
// deterministic regardless of -procs (each variant keeps at most its ring
// capacity of newest spans). Every variant owns a private tracer with its
// own span-ID space, so the collector gets an EndStream boundary between
// variants.
func drainVariantObs(vs []edge.SweepVariant, o *obsRun) {
	if o.cw == nil && o.col == nil {
		return
	}
	for i := range vs {
		for _, s := range vs[i].Trace.Spans() {
			if o.cw != nil {
				o.cw.Emit(s)
			}
			o.col.Observe(s)
		}
		o.col.EndStream()
	}
}

// printVariantCounters prints each variant's registry as Prometheus text
// under a comment header (text mode of sweep/scale-faults with -counters).
func printVariantCounters(vs []edge.SweepVariant) error {
	for i := range vs {
		if vs[i].Counters == nil {
			continue
		}
		fmt.Printf("# variant %s\n", vs[i].Label())
		if err := edge.WritePrometheusText(os.Stdout, vs[i].Counters); err != nil {
			return err
		}
	}
	return nil
}

// limitProcs applies -procs to the single-kernel scale-* experiments by
// bounding the Go scheduler (the sweep engine bounds its own worker pool).
func limitProcs() {
	if *procs > 0 {
		runtime.GOMAXPROCS(*procs)
	}
}

// printHistogram renders counts-per-bin as an ASCII bar chart, aggregating
// groupSecs bins per row.
func printHistogram(label string, bins []int, groupSecs int) {
	if groupSecs < 1 {
		groupSecs = 1
	}
	max := 0
	grouped := make([]int, 0, len(bins)/groupSecs+1)
	for i := 0; i < len(bins); i += groupSecs {
		sum := 0
		for j := i; j < i+groupSecs && j < len(bins); j++ {
			sum += bins[j]
		}
		grouped = append(grouped, sum)
		if sum > max {
			max = sum
		}
	}
	if max == 0 {
		return
	}
	fmt.Printf("%s over time:\n", label)
	for i, v := range grouped {
		bar := strings.Repeat("#", v*50/max)
		fmt.Printf("%4ds %4d %s\n", i*groupSecs, v, bar)
	}
}
