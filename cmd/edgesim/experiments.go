package main

import (
	"flag"
	"fmt"
	"io"
	"slices"
	"strings"

	"transparentedge/internal/experiments"
	"transparentedge/internal/obs"
)

// experiment is one row of the table that drives everything edgesim knows
// about its experiments: the usage text, name lookup, which flags apply,
// what `all` runs, and the run itself.
type experiment struct {
	name string
	// help is the usage text; "\n" starts a continuation line.
	help string
	// flags names the flags the experiment reads, space-separated ("obs"
	// stands for obsFlags). Setting any other flag is a usage error, except
	// -cpuprofile and -memprofile, which wrap every experiment.
	flags string
	// run executes the experiment with o's sinks attached. Nil only for
	// "all", which runs every other row in table order.
	run func(f *flags, o *obsRun) (output, error)
}

// obsFlags attach the run-wide collectors. The experiments that do not list
// them either produce no spans or own their per-point collectors
// (scale-steer, scale-mobility, scale-attrib).
const obsFlags = "trace counters attrib flame slo slo-dump"

// perRunFlags are left out of `all`'s list: each names one output (a file,
// or the JSON document on stdout) that every member run would overwrite.
const perRunFlags = "json trace flame slo-dump"

var table = []experiment{
	{name: "table1", help: "Table I  — the four edge services and their images",
		run: func(*flags, *obsRun) (output, error) { return rendered{text: experiments.TableI().String()}, nil }},
	{name: "fig9", help: "Fig. 9   — request distribution (1708 requests / 42 services)", flags: "seed",
		run: func(f *flags, _ *obsRun) (output, error) {
			res := experiments.Fig9And10(f.seed)
			return rendered{text: res.String() + histogram("requests/s", res.Trace.RequestsPerSecond(), 10)}, nil
		}},
	{name: "fig10", help: "Fig. 10  — deployment distribution over five minutes", flags: "seed",
		run: func(f *flags, _ *obsRun) (output, error) {
			res := experiments.Fig9And10(f.seed)
			return rendered{text: res.String() + histogram("deployments/s", res.DeploysPerSecond, 1)}, nil
		}},
	{name: "fig11", help: "Fig. 11  — scale-up total time, Docker vs Kubernetes", flags: "seed scale csv obs",
		run: scaleUp(true, false)},
	{name: "fig12", help: "Fig. 12  — create + scale-up total time", flags: "seed scale csv obs",
		run: scaleUp(false, false)},
	{name: "fig13", help: "Fig. 13  — image pull times, public vs private registry", flags: "seed csv obs",
		run: func(f *flags, o *obsRun) (output, error) {
			return f.figure(experiments.Fig13Pull(f.seed, o.options()...))
		}},
	{name: "fig14", help: "Fig. 14  — readiness wait after scale-up", flags: "seed scale csv obs",
		run: scaleUp(true, true)},
	{name: "fig15", help: "Fig. 15  — readiness wait after create + scale-up", flags: "seed scale csv obs",
		run: scaleUp(false, true)},
	{name: "fig16", help: "Fig. 16  — request time with running instances", flags: "seed requests csv obs",
		run: func(f *flags, o *obsRun) (output, error) {
			return f.figure(experiments.Fig16Warm(f.seed, f.requests, o.options()...))
		}},
	{name: "hybrid", help: "§VII     — Docker-first hybrid deployment", flags: "seed csv obs",
		run: func(f *flags, o *obsRun) (output, error) {
			return f.figure(experiments.HybridStudy(f.seed, o.options()...))
		}},
	{name: "serverless", help: "§VIII future work: WASM cold start vs containers", flags: "seed csv",
		run: func(f *flags, _ *obsRun) (output, error) { return f.figure(experiments.FutureWorkServerless(f.seed)) }},
	{name: "ablation-memory", help: "FlowMemory on/off for returning clients", flags: "seed csv",
		run: func(f *flags, _ *obsRun) (output, error) { return f.figure(experiments.AblationFlowMemory(f.seed)) }},
	{name: "ablation-timeout", help: "switch idle-timeout sweep", flags: "seed csv",
		run: func(f *flags, _ *obsRun) (output, error) {
			return f.figure(experiments.AblationIdleTimeout(f.seed))
		}},
	{name: "ablation-policy", help: "with-waiting vs no-wait vs hybrid", flags: "seed csv",
		run: func(f *flags, _ *obsRun) (output, error) { return f.figure(experiments.AblationWaitingPolicy(f.seed)) }},
	{name: "ablation-proactive", help: "on-demand vs EWMA-predicted proactive deployment", flags: "seed csv",
		run: func(f *flags, _ *obsRun) (output, error) { return f.figure(experiments.AblationProactive(f.seed)) }},
	{name: "ablation-probe", help: "readiness-probe interval sweep", flags: "seed csv",
		run: func(f *flags, _ *obsRun) (output, error) {
			return f.figure(experiments.AblationProbeInterval(f.seed))
		}},
	{name: "ablation-hierarchy", help: "fig. 3: cold vs far-warm vs near-warm first request", flags: "seed csv",
		run: func(f *flags, _ *obsRun) (output, error) { return f.figure(experiments.AblationHierarchy(f.seed)) }},
	{name: "scale-dispatch", help: "dispatch latency vs cluster count", flags: "seed clusters serial procs json obs",
		run: func(f *flags, o *obsRun) (output, error) {
			d := dispatchOutput{f: f, o: o}
			// -clusters 1 is the baseline itself: one run, not two.
			for _, clusters := range slices.Compact([]int{1, f.clusters}) {
				res, err := experiments.DispatchScale(f.seed, clusters, f.serial, o.options()...)
				if err != nil {
					return nil, err
				}
				d.runs = append(d.runs, res)
			}
			return d, nil
		}},
	{name: "scale-churn", help: "controller-state bounds under client churn", flags: "seed clients procs json obs",
		run: func(f *flags, o *obsRun) (output, error) {
			return measured[experiments.JSONResult](experiments.CookieChurn(f.seed, f.clients, o.options()...))
		}},
	{name: "scale-replay", help: "large-trace replay cost", flags: "seed replay-requests procs json obs",
		run: func(f *flags, o *obsRun) (output, error) {
			res, err := experiments.ReplayScale(f.seed, f.replayRequests, o.options()...)
			if f.counters { // the JSON always carries it, as kernel_*
				return measured[experiments.JSONResult](res, err, fmt.Sprintf("  kernel           %s\n", res.Kernel))
			}
			return measured[experiments.JSONResult](res, err)
		}},
	{name: "scale-shard", help: "sharded multi-region replay; fingerprints are bit-identical\nat every shard count",
		flags: "seed replay-requests shards procs json obs",
		run: func(f *flags, o *obsRun) (output, error) {
			return measured[experiments.JSONResult](experiments.ReplayShard(f.seed, f.replayRequests, f.shards, o.options()...))
		}},
	{name: "scale-steer", help: "steering backend comparison: per-flow openflow rules vs\nstateless SRv6-style ingress encoding over a client-count axis",
		flags: "seed replay-requests backend procs json",
		run: func(f *flags, _ *obsRun) (output, error) {
			return measured[experiments.JSONResult](experiments.SteerSweep(f.seed, f.replayRequests, f.backends))
		}},
	{name: "scale-mobility", help: "handover comparison under client mobility: continuity gap\nand flow-mod churn per backend across handover rates, with\nsharded fingerprint parity",
		flags: "seed replay-requests backend procs json",
		run: func(f *flags, _ *obsRun) (output, error) {
			return measured[experiments.JSONResult](experiments.MobilitySweep(f.seed, f.replayRequests, f.backends))
		}},
	{name: "scale-attrib", help: "latency attribution sweep: per-phase dispatch breakdown,\nopenflow vs srv6 across the client axis, plus the\nattribution determinism gates at shards 1/2/4/8",
		flags: "seed replay-requests procs json",
		run: func(f *flags, _ *obsRun) (output, error) {
			return measured[experiments.JSONResult](experiments.AttribSweep(f.seed, f.replayRequests))
		}},
	{name: "sweep", help: "parallel with/without-waiting sweep across seeds",
		flags: "sweep-seeds sweep-requests procs json obs",
		run: func(f *flags, o *obsRun) (output, error) {
			res, counters, err := o.runSweep(experiments.WaitingSweep(f.sweepSeeds, f.sweepRequests))
			return measured[[]experiments.JSONResult](res, err, counters)
		}},
	{name: "scale-faults", help: "deterministic fault-injection sweep: retries, next-best\nfallback, and cloud fallback under increasing fault rates",
		flags: "seed fault-rates sweep-requests procs json obs",
		run: func(f *flags, o *obsRun) (output, error) {
			res, counters, err := o.runSweep(experiments.FaultSweepVariants(f.seed, f.sweepRequests, f.rates))
			return measured[[]experiments.JSONResult](experiments.FaultSweepResult{SweepResult: res}, err, counters)
		}},
	// Every row above, in order: none is excluded. Its flags are the union
	// of theirs minus perRunFlags (TestExperimentTable keeps that true).
	{name: "all", help: "run every experiment above, in this order",
		flags: "seed scale requests csv clusters clients serial replay-requests backend shards procs " +
			"sweep-seeds sweep-requests fault-rates counters attrib slo"},
}

// output is what an experiment hands back: its text rendering and, for the
// experiments that list the json flag, the uniform JSON shape (one
// experiments.JSONResult or a slice of them).
type output interface {
	Text(w io.Writer) error
	JSON() any
}

// rendered is the output of every experiment whose text needs no further
// simulation to print.
type rendered struct {
	text string
	json any
}

func (r rendered) Text(w io.Writer) error {
	_, err := io.WriteString(w, r.text)
	return err
}

func (r rendered) JSON() any { return r.json }

// figure adapts a paper-figure runner's (result, error): the result is a
// table, printed as CSV with -csv, followed by its Notes lines if any.
func (f *flags) figure(res interface {
	String() string
	CSV() string
}, err error) (output, error) {
	if err != nil {
		return nil, err
	}
	s := res.String()
	if f.csv {
		s = res.CSV()
	}
	if n, ok := res.(interface{ Notes() string }); ok {
		s += n.Notes()
	}
	return rendered{text: s}, nil
}

// scaleUp is the run of figs. 11/12/14/15: one scale-up study, printing
// its readiness-wait table (figs. 14/15) or its totals (figs. 11/12).
func scaleUp(preCreate, readyWait bool) func(*flags, *obsRun) (output, error) {
	return func(f *flags, o *obsRun) (output, error) {
		res, err := experiments.ScaleUpStudy(f.seed, preCreate, f.scale, o.options()...)
		if err != nil {
			return nil, err
		}
		if readyWait {
			return f.figure(res.ReadyWait, nil)
		}
		return f.figure(res.Totals, nil)
	}
}

// measured adapts a scale/sweep runner's (result, error) — anything with
// String and JSON; extra is appended to the text only.
func measured[J any](res interface {
	String() string
	JSON() J
}, err error, extra ...string) (output, error) {
	if err != nil {
		return nil, err
	}
	return rendered{res.String() + strings.Join(extra, ""), res.JSON()}, nil
}

// dispatchOutput is scale-dispatch's measurements: 1 cluster, then
// -clusters when that is more. Unless -serial already selected it, the text appends the
// paper's original serial dispatcher for comparison — run only when the
// text is rendered, so the JSON counters cover exactly the runs the JSON
// reports.
type dispatchOutput struct {
	runs []experiments.DispatchScaleResult
	f    *flags
	o    *obsRun
}

func (d dispatchOutput) Text(w io.Writer) error {
	if !d.f.serial {
		ref, err := experiments.DispatchScale(d.f.seed, d.f.clusters, true, d.o.options()...)
		if err != nil {
			return err
		}
		d.runs = append(d.runs, ref)
	}
	for _, r := range d.runs {
		fmt.Fprintln(w, r.String())
	}
	return nil
}

func (d dispatchOutput) JSON() any {
	var out []experiments.JSONResult
	for _, r := range d.runs {
		out = append(out, r.JSON())
	}
	return out
}

// runSweep runs the variants on -procs workers. Each variant gets its own
// tracer and registry: the types are concurrency-safe, but sharing a span
// ring or an in-flight gauge across parallel variants would make their
// contents depend on worker interleaving. Afterwards every variant's
// retained spans stream into the shared trace file and the attribution
// collector in variant order, so both are deterministic regardless of
// -procs (each variant keeps at most its ring capacity of newest spans);
// the collector gets an EndStream boundary between variants because each
// private tracer has its own span-ID space. The returned text is each
// variant's registry in the Prometheus format under a comment header: what
// -counters adds to the text rendering (the JSON entries carry the same as
// their counters blocks).
func (o *obsRun) runSweep(vs []experiments.SweepVariant) (res experiments.SweepResult, counters string, err error) {
	for i := range vs {
		if o.tracer != nil || o.col != nil {
			vs[i].Trace = obs.NewTracer(0)
		}
		if o.reg != nil {
			vs[i].Counters = obs.NewRegistry()
		}
	}
	if res, err = (experiments.Sweep{Variants: vs, Procs: o.f.procs}).Run(); err != nil {
		return res, "", err
	}
	if o.cw != nil || o.col != nil {
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
	var b strings.Builder
	for i := range vs {
		if vs[i].Counters != nil {
			fmt.Fprintf(&b, "# variant %s\n", vs[i].Label())
			if err := obs.WritePrometheus(&b, vs[i].Counters); err != nil {
				return res, "", err
			}
		}
	}
	return res, b.String(), nil
}

// lookup returns the named experiment, or nil.
func lookup(name string) *experiment {
	for i := range table {
		if table[i].name == name {
			return &table[i]
		}
	}
	return nil
}

// reads reports whether the experiment lists the flag.
func (e *experiment) reads(name string) bool {
	return contains(e.flags, name) || (contains(e.flags, "obs") && contains(obsFlags, name))
}

func contains(list, name string) bool { return slices.Contains(strings.Fields(list), name) }

// names lists the experiments that satisfy keep (nil = all), in table order.
func names(keep func(*experiment) bool) []string {
	var out []string
	for i := range table {
		if keep == nil || keep(&table[i]) {
			out = append(out, table[i].name)
		}
	}
	return out
}

// checkApplicable rejects every flag set on the command line that the
// experiment does not read: a flag that would be silently ignored is a
// mistake worth a usage error (an empty trace file, a text table where JSON
// was asked for).
func checkApplicable(fs *flag.FlagSet, e *experiment) error {
	var err error
	fs.Visit(func(fl *flag.Flag) {
		if err != nil || fl.Name == "cpuprofile" || fl.Name == "memprofile" || e.reads(fl.Name) {
			return
		}
		readers := names(func(x *experiment) bool { return x.reads(fl.Name) })
		err = fmt.Errorf("-%s does not apply to %s (it is read by: %s)", fl.Name, e.name, strings.Join(readers, ", "))
	})
	return err
}

// usage prints the experiment table and the flag defaults.
func usage(w io.Writer, fs *flag.FlagSet) {
	fmt.Fprintf(w, "usage: edgesim [flags] <experiment>\n\nExperiments (each lists the flags it reads; any other flag is an error):\n")
	for i := range table {
		e := &table[i]
		fmt.Fprintf(w, "  %-18s %s\n", e.name, strings.ReplaceAll(e.help, "\n", "\n"+strings.Repeat(" ", 21)))
		if e.flags != "" {
			fmt.Fprintf(w, "%21s[-%s]\n", "", strings.Join(strings.Fields(e.flags), " -"))
		}
	}
	fmt.Fprintf(w, "\n-obs stands for -%s; -cpuprofile and -memprofile work everywhere.\n\nFlags:\n",
		strings.Join(strings.Fields(obsFlags), " -"))
	fs.PrintDefaults()
}
