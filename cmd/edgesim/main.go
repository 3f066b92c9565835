// Command edgesim runs the paper's evaluation experiments on the simulated
// C³ testbed and prints the tables and series of each figure.
//
// Usage:
//
//	edgesim [flags] <experiment>
//
// `edgesim -h` lists the experiments and, for each, the flags it reads; a
// flag the chosen experiment does not read is a usage error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"transparentedge/internal/experiments"
	"transparentedge/internal/obs"
	"transparentedge/internal/obs/attrib"
)

// flags holds one invocation's parsed command line.
type flags struct {
	seed  int64
	scale float64

	requests, clusters, clients, replayRequests, shards, procs, sweepSeeds, sweepRequests int

	csv, serial, json, counters, attrib bool

	backend, faultRates, trace, flame, slo, sloDump, cpuProfile, memProfile string

	// Parsed by validate from -fault-rates, -backend and -slo.
	rates    []float64
	backends []string
	slos     []attrib.SLO
}

func newFlagSet(f *flags) *flag.FlagSet {
	fs := flag.NewFlagSet("edgesim", flag.ContinueOnError)
	fs.Int64Var(&f.seed, "seed", 42, "simulation seed (runs are deterministic per seed)")
	fs.Float64Var(&f.scale, "scale", 1, "trace scale in (0,1] for the trace-driven figures")
	fs.IntVar(&f.requests, "requests", 200, "warm requests per service for fig16")
	fs.BoolVar(&f.csv, "csv", false, "emit tables as CSV (milliseconds) instead of text")
	fs.IntVar(&f.clusters, "clusters", 16, "edge cluster count for scale-dispatch")
	fs.IntVar(&f.clients, "clients", 2000, "one-shot client count for scale-churn")
	fs.BoolVar(&f.serial, "serial", false, "scale-dispatch: serial per-cluster state queries (the paper's original dispatcher)")

	fs.IntVar(&f.replayRequests, "replay-requests", 10000, "trace length for the scale-replay, -shard, -steer, -mobility and -attrib replays")
	fs.StringVar(&f.backend, "backend", "both", "scale-steer, scale-mobility: steering backend to sweep (openflow, srv6, both)")
	fs.IntVar(&f.shards, "shards", 1, "scale-shard: kernel count for the sharded multi-region replay (1 = serial)")

	fs.IntVar(&f.procs, "procs", 0, "worker/CPU bound for sweep and the scale-* experiments (0 = all cores)")
	fs.BoolVar(&f.json, "json", false, "sweep/scale-*: emit the uniform JSON result shape instead of text")
	fs.IntVar(&f.sweepSeeds, "sweep-seeds", 4, "sweep: number of seeds (variants = seeds x 2 waiting modes)")
	fs.IntVar(&f.sweepRequests, "sweep-requests", 2000, "sweep, scale-faults: requests per variant")

	fs.StringVar(&f.faultRates, "fault-rates", "0,0.1,0.3,0.5", "scale-faults: comma-separated injected fault rates in [0,1)")

	fs.StringVar(&f.trace, "trace", "", "write the run's spans as a Chrome trace-event file (open in ui.perfetto.dev)")
	fs.BoolVar(&f.counters, "counters", false, "collect obs counters: Prometheus text on stdout (with -json, a counters block in the result)")

	fs.BoolVar(&f.attrib, "attrib", false, "attach the latency-attribution engine: critical-path phase breakdown on stdout (with -json, an attrib_* block in the result)")
	fs.StringVar(&f.flame, "flame", "", "write the run's virtual-time flame graph to `file` (implies -attrib; .pb.gz/.pprof selects the pprof proto, anything else collapsed stacks)")
	fs.StringVar(&f.slo, "slo", "", "comma-separated latency SLOs over root spans, e.g. request:p99=2ms (implies -attrib; first breach per objective dumps the flight recorder)")
	fs.StringVar(&f.sloDump, "slo-dump", "", "write the first SLO breach's flight-recorder span trees as a Chrome trace-event file")

	fs.StringVar(&f.cpuProfile, "cpuprofile", "", "write a pprof CPU profile of the run to `file` (works with every experiment)")
	fs.StringVar(&f.memProfile, "memprofile", "", "write a pprof allocation profile of the run to `file` (works with every experiment)")
	return fs
}

// maxShards bounds -shards: the scenario has only DefaultRegions+1 = 9
// domains, so more kernels than that can never help; 64 leaves headroom if
// the region count grows, while still rejecting nonsense values early.
const maxShards = 64

// validate checks every flag value, parsing -fault-rates and -backend on
// the way. Each size flag sizes a generated workload, so a value below 1
// has no meaning; the experiments used to clamp such values to their own
// defaults and run anyway. Flags the chosen experiment does not read still
// hold their (valid) defaults — checkApplicable has rejected the rest.
func (f *flags) validate() error {
	for _, c := range []struct {
		name string
		n    int
	}{
		{"-replay-requests", f.replayRequests},
		{"-sweep-requests", f.sweepRequests},
		{"-sweep-seeds", f.sweepSeeds},
		{"-requests", f.requests},
		{"-clients", f.clients},
		{"-clusters", f.clusters},
		{"-shards", f.shards},
	} {
		if c.n < 1 {
			return fmt.Errorf("%s must be >= 1 (got %d)", c.name, c.n)
		}
	}
	if f.shards > maxShards {
		return fmt.Errorf("-shards %d exceeds the maximum %d", f.shards, maxShards)
	}
	if f.procs < 0 {
		return fmt.Errorf("-procs must be >= 0 (got %d)", f.procs)
	}
	if !(f.scale > 0 && f.scale <= 1) { // written so that NaN fails
		return fmt.Errorf("-scale must be in (0,1] (got %v)", f.scale)
	}
	var err error
	if f.rates, err = parseRates(f.faultRates); err != nil {
		return fmt.Errorf("-fault-rates: %v", err)
	}
	if f.backends, err = parseBackends(f.backend); err != nil {
		return fmt.Errorf("-backend: %v", err)
	}
	if f.slos, err = attrib.ParseSLOs(f.slo); err != nil {
		return fmt.Errorf("-slo: %v", err)
	}
	return nil
}

// parseBackends maps the -backend flag to the steering backends scale-steer
// and scale-mobility sweep: a single backend, or both side by side.
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
		if err != nil || !(r >= 0 && r < 1) { // written so that NaN fails
			return nil, fmt.Errorf("bad fault rate %q (want [0,1))", f)
		}
		rates = append(rates, r)
	}
	if len(rates) == 0 {
		return nil, fmt.Errorf("no fault rates in %q", s)
	}
	return rates, nil
}

// startProfiles starts -cpuprofile collection and returns the stop function
// that finalizes both profile files. stop must run exactly once, after the
// experiment: the CPU profile covers the whole run, and the allocation
// profile is written at the end (pprof "allocs" keeps cumulative totals, so
// alloc_space covers the run too, while inuse_space reflects the final live
// set after a forced GC).
func (f *flags) startProfiles() (stop func() error, err error) {
	var cpuF *os.File
	if f.cpuProfile != "" {
		cpuF, err = os.Create(f.cpuProfile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuF); err != nil {
			cpuF.Close()
			return nil, err
		}
	}
	return func() error {
		if cpuF != nil {
			pprof.StopCPUProfile()
			if err := cpuF.Close(); err != nil {
				return err
			}
		}
		if f.memProfile != "" {
			mf, err := os.Create(f.memProfile)
			if err != nil {
				return err
			}
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(mf, 0); err != nil {
				mf.Close()
				return err
			}
			return mf.Close()
		}
		return nil
	}, nil
}

// obsRun bundles the -trace / -counters / -attrib wiring of one experiment:
// a tracer streaming into a Chrome trace-event file, a counter registry,
// and/or a latency-attribution collector. The zero handles mean "off" end
// to end (the library's nil-sink zero-cost path).
type obsRun struct {
	f      *flags
	stderr io.Writer
	tracer *obs.Tracer
	reg    *obs.Registry
	cw     *obs.ChromeWriter
	file   *os.File
	col    *attrib.Collector
}

func newObsRun(f *flags, stderr io.Writer) (*obsRun, error) {
	o := &obsRun{f: f, stderr: stderr}
	if f.trace != "" {
		file, err := os.Create(f.trace)
		if err != nil {
			return nil, err
		}
		o.file = file
		o.cw = obs.NewChromeWriter(file)
		// A small ring suffices: the sink streams every span to disk.
		o.tracer = obs.NewTracer(1024)
		o.tracer.SetSink(o.cw.Emit)
	}
	if f.counters {
		o.reg = obs.NewRegistry()
	}
	// -flame, -slo and -slo-dump imply -attrib.
	if f.attrib || f.flame != "" || f.slo != "" || f.sloDump != "" {
		dumped := false
		o.col = attrib.New(attrib.Options{
			SLOs: f.slos,
			OnBreach: func(b attrib.Breach) {
				fmt.Fprintf(stderr, "edgesim: SLO BREACH %v on %q: observed %v over %d samples (%d trees in flight recorder)\n",
					b.SLO, b.Root, b.Observed, b.Samples, len(b.Trees))
				if f.sloDump == "" || dumped {
					return
				}
				dumped = true
				if err := o.writeBreachDump(b); err != nil {
					fmt.Fprintf(stderr, "edgesim: slo-dump: %v\n", err)
				}
			},
		})
	}
	return o, nil
}

// writeBreachDump flattens a breach's flight-recorder trees into one Chrome
// trace-event file (the newest tree is the one that tipped the objective).
func (o *obsRun) writeBreachDump(b attrib.Breach) error {
	var spans []obs.Span
	for _, tree := range b.Trees {
		spans = append(spans, tree...)
	}
	file, err := os.Create(o.f.sloDump)
	if err != nil {
		return err
	}
	if err := obs.WriteChrome(file, spans); err != nil {
		file.Close()
		return err
	}
	fmt.Fprintf(o.stderr, "edgesim: wrote %d flight-recorder spans to %s\n", len(spans), o.f.sloDump)
	return file.Close()
}

// options returns the experiment options for the enabled sinks.
func (o *obsRun) options() []experiments.Option {
	var opts []experiments.Option
	if o.tracer != nil {
		opts = append(opts, experiments.WithTrace(o.tracer))
	}
	if o.reg != nil {
		opts = append(opts, experiments.WithCounters(o.reg))
	}
	if o.col != nil {
		opts = append(opts, experiments.WithAttrib(o.col))
	}
	return opts
}

// finish closes the trace file (if any), writes the flame graph, and, in
// text mode, prints the attribution summary and the counter snapshot as
// Prometheus text.
func (o *obsRun) finish(text io.Writer) error {
	if o.cw != nil {
		if err := o.cw.Close(); err != nil {
			return err
		}
		fmt.Fprintf(o.stderr, "edgesim: wrote %d trace events to %s\n", o.cw.Events(), o.f.trace)
		if err := o.file.Close(); err != nil {
			return err
		}
	}
	if o.col != nil {
		rep := o.col.Report()
		if o.f.flame != "" {
			if err := o.writeFlame(rep); err != nil {
				return err
			}
		}
		if text != nil {
			fmt.Fprint(text, rep.Summary())
		}
	}
	if o.reg != nil && text != nil {
		return obs.WritePrometheus(text, o.reg)
	}
	return nil
}

// writeFlame exports the report's flame graph: gzipped pprof proto for
// .pb.gz / .pprof paths (go tool pprof -http), collapsed stacks otherwise
// (flamegraph.pl, speedscope).
func (o *obsRun) writeFlame(rep *attrib.Report) error {
	path := o.f.flame
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".pb.gz") || strings.HasSuffix(path, ".pprof") {
		err = rep.WritePprof(file)
	} else {
		err = rep.WriteFolded(file)
	}
	if err != nil {
		file.Close()
		return err
	}
	fmt.Fprintf(o.stderr, "edgesim: wrote flame graph (%d stacks, %d trees) to %s\n",
		len(rep.Folded), rep.Trees, path)
	return file.Close()
}

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

// cli is one edgesim invocation: 0 on success, 1 when the experiment fails,
// 2 on a usage error (unknown experiment, a flag the experiment does not
// read, a value out of range) — reported before anything runs.
func cli(args []string, stdout, stderr io.Writer) int {
	var f flags
	fs := newFlagSet(&f)
	fs.SetOutput(stderr)
	fs.Usage = func() { usage(stderr, fs) }
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	usageError := func(err error) int {
		fmt.Fprintf(stderr, "edgesim: %v\nrun 'edgesim -h' for usage\n", err)
		return 2
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}
	e := lookup(strings.ToLower(fs.Arg(0)))
	if e == nil {
		return usageError(fmt.Errorf("unknown experiment %q (want one of: %s)", fs.Arg(0), strings.Join(names(nil), ", ")))
	}
	if err := checkApplicable(fs, e); err != nil {
		return usageError(err)
	}
	if err := f.validate(); err != nil {
		return usageError(err)
	}
	if err := f.run(e, stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "edgesim:", err)
		return 1
	}
	return 0
}

// run wraps one invocation's experiment(s) in the optional -cpuprofile /
// -memprofile collection; profiling is started once even when the
// experiment is "all".
func (f *flags) run(e *experiment, stdout, stderr io.Writer) error {
	stopProfiles, err := f.startProfiles()
	if err != nil {
		return err
	}
	if err := f.runExperiment(e, stdout, stderr); err != nil {
		stopProfiles()
		return err
	}
	return stopProfiles()
}

func (f *flags) runExperiment(e *experiment, stdout, stderr io.Writer) error {
	if e.run == nil { // "all"
		for i := range table {
			if m := &table[i]; m.run != nil {
				if err := f.runExperiment(m, stdout, stderr); err != nil {
					return fmt.Errorf("%s: %w", m.name, err)
				}
				fmt.Fprintln(stdout)
			}
		}
		return nil
	}
	if f.procs > 0 && e.reads("procs") {
		// Bounds the Go scheduler for the single-kernel scale-* experiments
		// (the sweep engine bounds its own worker pool as well).
		runtime.GOMAXPROCS(f.procs)
	}
	o, err := newObsRun(f, stderr)
	if err != nil {
		return err
	}
	out, err := e.run(f, o)
	if err != nil {
		return err
	}
	if !f.json {
		if err := out.Text(stdout); err != nil {
			return err
		}
		return o.finish(stdout)
	}
	// The uniform JSON shape: the attribution block and, for results that
	// carry no counters of their own, the registry snapshot go on the last
	// entry (the registry accumulates over all of an experiment's runs).
	v := out.JSON()
	entries, isList := v.([]experiments.JSONResult)
	if !isList {
		entries = []experiments.JSONResult{v.(experiments.JSONResult)}
	}
	last := &entries[len(entries)-1]
	if last.Counters == nil {
		last.Counters = o.reg.Map()
	}
	if o.col != nil {
		experiments.AttribReportMetrics(last.Metrics, o.col.Report())
	}
	if err := o.finish(nil); err != nil {
		return err
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if isList {
		return enc.Encode(entries)
	}
	return enc.Encode(entries[0])
}

// histogram renders counts-per-bin as an ASCII bar chart, aggregating
// groupSecs bins per row.
func histogram(label string, bins []int, groupSecs int) string {
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
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s over time:\n", label)
	for i, v := range grouped {
		fmt.Fprintf(&b, "%4ds %4d %s\n", i*groupSecs, v, strings.Repeat("#", v*50/max))
	}
	return b.String()
}
