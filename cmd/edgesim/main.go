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
	"slices"
	"strconv"
	"strings"

	"transparentedge/internal/experiments"
	"transparentedge/internal/obs"
	"transparentedge/internal/obs/attrib"
)

// flags holds one invocation's parsed command line: the experiments'
// knobs, and what the command line owns — sink files, profiles and the
// flags validate parses into the knobs.
type flags struct {
	p experiments.Params

	counters, attrib bool

	backend, faultRates, trace, flame, slo, sloDump, cpuProfile, memProfile string

	// Parsed by validate from -slo.
	slos []attrib.SLO
}

func newFlagSet(f *flags) *flag.FlagSet {
	p := &f.p
	fs := flag.NewFlagSet("edgesim", flag.ContinueOnError)
	fs.Int64Var(&p.Seed, "seed", 42, "simulation seed (runs are deterministic per seed)")
	fs.Float64Var(&p.Scale, "scale", 1, "trace scale in (0,1] for the trace-driven figures")
	fs.IntVar(&p.Requests, "requests", 200, "warm requests per service for fig16")
	fs.BoolVar(&p.CSV, "csv", false, "emit tables as CSV (milliseconds) instead of text")
	fs.IntVar(&p.Clusters, "clusters", 16, "edge cluster count for scale-dispatch")
	fs.IntVar(&p.Clients, "clients", 2000, "one-shot client count for scale-churn")
	fs.BoolVar(&p.Serial, "serial", false, "scale-dispatch: serial per-cluster state queries (the paper's original dispatcher)")

	fs.IntVar(&p.ReplayRequests, "replay-requests", 10000, "trace length for the scale-replay, -shard, -steer, -mobility and -attrib replays")
	fs.StringVar(&f.backend, "backend", "both", "scale-steer, scale-mobility: steering backend to sweep (openflow, srv6, both)")
	fs.IntVar(&p.Shards, "shards", 1, "scale-shard: kernel count for the sharded multi-region replay (1 = serial)")

	fs.IntVar(&p.Procs, "procs", 0, "worker/CPU bound for sweep and the scale-* experiments (0 = all cores)")
	fs.BoolVar(&p.JSON, "json", false, "sweep/scale-*: emit the uniform JSON result shape instead of text")
	fs.IntVar(&p.SweepSeeds, "sweep-seeds", 4, "sweep: number of seeds (variants = seeds x 2 waiting modes)")
	fs.IntVar(&p.SweepRequests, "sweep-requests", 2000, "sweep, scale-faults: requests per variant")

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

// obsFlags attach the run-wide collectors. The experiments that do not list
// them either produce no spans or own their per-point collectors
// (scale-steer, scale-mobility, scale-attrib).
const obsFlags = "trace counters attrib flame slo slo-dump"

// perRunFlags are left out of `all`'s list: each names one output (a file,
// or the JSON document on stdout) that every member run would overwrite.
const perRunFlags = "json trace flame slo-dump"

// lookup returns the named experiment, or nil.
func lookup(name string) *experiments.Experiment {
	for i := range experiments.Table {
		if experiments.Table[i].Name == name {
			return &experiments.Table[i]
		}
	}
	return nil
}

// reads reports whether the experiment lists the flag.
func reads(e *experiments.Experiment, name string) bool {
	return contains(e.Flags, name) || (contains(e.Flags, "obs") && contains(obsFlags, name))
}

func contains(list, name string) bool { return slices.Contains(strings.Fields(list), name) }

// names lists the experiments that satisfy keep (nil = all), in table order.
func names(keep func(*experiments.Experiment) bool) []string {
	var out []string
	for i := range experiments.Table {
		if keep == nil || keep(&experiments.Table[i]) {
			out = append(out, experiments.Table[i].Name)
		}
	}
	return out
}

// checkApplicable rejects every flag set on the command line that the
// experiment does not read: a flag that would be silently ignored is a
// mistake worth a usage error (an empty trace file, a text table where JSON
// was asked for).
func checkApplicable(fs *flag.FlagSet, e *experiments.Experiment) error {
	var err error
	fs.Visit(func(fl *flag.Flag) {
		if err != nil || fl.Name == "cpuprofile" || fl.Name == "memprofile" || reads(e, fl.Name) {
			return
		}
		readers := names(func(x *experiments.Experiment) bool { return reads(x, fl.Name) })
		err = fmt.Errorf("-%s does not apply to %s (it is read by: %s)", fl.Name, e.Name, strings.Join(readers, ", "))
	})
	return err
}

// usage prints the experiment table and the flag defaults.
func usage(w io.Writer, fs *flag.FlagSet) {
	fmt.Fprintf(w, "usage: edgesim [flags] <experiment>\n\nExperiments (each lists the flags it reads; any other flag is an error):\n")
	for _, e := range experiments.Table {
		fmt.Fprintf(w, "  %-18s %s\n", e.Name, strings.ReplaceAll(e.Help, "\n", "\n"+strings.Repeat(" ", 21)))
		if e.Flags != "" {
			fmt.Fprintf(w, "%21s[-%s]\n", "", strings.Join(strings.Fields(e.Flags), " -"))
		}
	}
	fmt.Fprintf(w, "\n-obs stands for -%s; -cpuprofile and -memprofile work everywhere.\n\nFlags:\n",
		strings.Join(strings.Fields(obsFlags), " -"))
	fs.PrintDefaults()
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
	p := &f.p
	for _, c := range []struct {
		name string
		n    int
	}{
		{"-replay-requests", p.ReplayRequests},
		{"-sweep-requests", p.SweepRequests},
		{"-sweep-seeds", p.SweepSeeds},
		{"-requests", p.Requests},
		{"-clients", p.Clients},
		{"-clusters", p.Clusters},
		{"-shards", p.Shards},
	} {
		if c.n < 1 {
			return fmt.Errorf("%s must be >= 1 (got %d)", c.name, c.n)
		}
	}
	if p.Shards > maxShards {
		return fmt.Errorf("-shards %d exceeds the maximum %d", p.Shards, maxShards)
	}
	if p.Procs < 0 {
		return fmt.Errorf("-procs must be >= 0 (got %d)", p.Procs)
	}
	if !(p.Scale > 0 && p.Scale <= 1) { // written so that NaN fails
		return fmt.Errorf("-scale must be in (0,1] (got %v)", p.Scale)
	}
	var err error
	if p.Rates, err = parseRates(f.faultRates); err != nil {
		return fmt.Errorf("-fault-rates: %v", err)
	}
	if p.Backends, err = parseBackends(f.backend); err != nil {
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
// the sinks it sets on the experiment's Params — a tracer streaming into a
// Chrome trace-event file, a counter registry, a latency-attribution
// collector — and the files they end in. The zero handles mean "off" end to
// end (the library's nil-sink zero-cost path).
type obsRun struct {
	f      *flags
	p      *experiments.Params
	stderr io.Writer
	cw     *obs.ChromeWriter
	file   *os.File
}

// newObsRun opens the sinks f asks for and sets them on p.
func newObsRun(f *flags, p *experiments.Params, stderr io.Writer) (*obsRun, error) {
	o := &obsRun{f: f, p: p, stderr: stderr}
	if f.trace != "" {
		file, err := os.Create(f.trace)
		if err != nil {
			return nil, err
		}
		o.file = file
		o.cw = obs.NewChromeWriter(file)
		// A small ring suffices: the sink streams every span to disk.
		p.Trace = obs.NewTracer(1024)
		p.Trace.SetSink(o.cw.Emit)
	}
	if f.counters {
		p.Counters = obs.NewRegistry()
	}
	// -flame, -slo and -slo-dump imply -attrib.
	if f.attrib || f.flame != "" || f.slo != "" || f.sloDump != "" {
		dumped := false
		p.Attrib = attrib.New(attrib.Options{
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
	if o.p.Attrib != nil {
		rep := o.p.Attrib.Report()
		if o.f.flame != "" {
			if err := o.writeFlame(rep); err != nil {
				return err
			}
		}
		if text != nil {
			fmt.Fprint(text, rep.Summary())
		}
	}
	if o.p.Counters != nil && text != nil {
		return obs.WritePrometheus(text, o.p.Counters)
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
func (f *flags) run(e *experiments.Experiment, stdout, stderr io.Writer) error {
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

func (f *flags) runExperiment(e *experiments.Experiment, stdout, stderr io.Writer) error {
	if e.Run == nil { // "all"
		for i := range experiments.Table {
			if m := &experiments.Table[i]; m.Run != nil {
				if err := f.runExperiment(m, stdout, stderr); err != nil {
					return fmt.Errorf("%s: %w", m.Name, err)
				}
				fmt.Fprintln(stdout)
			}
		}
		return nil
	}
	if f.p.Procs > 0 && reads(e, "procs") {
		// Bounds the Go scheduler for the single-kernel scale-* experiments
		// (the sweep engine bounds its own worker pool as well).
		runtime.GOMAXPROCS(f.p.Procs)
	}
	p := f.p
	o, err := newObsRun(f, &p, stderr)
	if err != nil {
		return err
	}
	out, err := e.Run(p)
	if err != nil {
		return err
	}
	if !p.JSON {
		if _, err := io.WriteString(stdout, out.Text); err != nil {
			return err
		}
		return o.finish(stdout)
	}
	if err := o.finish(nil); err != nil {
		return err
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(out.JSON)
}
