package experiments

import (
	"fmt"
	"strings"

	"transparentedge/internal/metrics"
	"transparentedge/internal/obs"
	"transparentedge/internal/obs/attrib"
)

// Experiment is one row of Table: the usage text, the flags the experiment
// reads and its run.
type Experiment struct {
	Name string
	// Help is the usage text; "\n" starts a continuation line.
	Help string
	// Flags names the edgesim flags the experiment reads, space-separated;
	// "obs" stands for the flags that attach Params' sinks.
	Flags string
	// Run runs the experiment. Nil only for "all", which runs every other
	// row in table order.
	Run func(Params) (Output, error)
}

// Params is one run's knobs, each bound to the edgesim flag of its name,
// and the run-wide obs sinks. A run reads only what its row's Flags name.
type Params struct {
	Seed  int64
	Scale float64

	Requests, Clusters, Clients, ReplayRequests, Shards, Procs, SweepSeeds, SweepRequests int

	CSV, Serial, JSON bool

	// Backends are the steering backends scale-steer and scale-mobility
	// sweep (nil = all of steerBackends); Rates are scale-faults' fault rates.
	Backends []string
	Rates    []float64

	// The sinks, nil when off: a tracer every span of the run reaches, a
	// counter registry, and a latency-attribution collector that sees the
	// same spans. The collector is a passive sink: a run's deterministic
	// outputs do not change with it attached. A run that streams several
	// private tracers into it calls its EndStream between them, since root
	// span IDs are unique only per tracer.
	Trace    *obs.Tracer
	Counters *obs.Registry
	Attrib   *attrib.Collector
}

// Output is what a run hands back: its text and, for the rows that read
// -json, the uniform JSON shape: one JSONResult, or a list of them.
type Output struct {
	Text string
	JSON any
}

// Table is every experiment edgesim runs, in the order `all` runs them.
var Table = []Experiment{
	{Name: "table1", Help: "Table I  — the four edge services and their images",
		Run: func(Params) (Output, error) { return Output{Text: tableI().String()}, nil }},
	{Name: "fig9", Help: "Fig. 9   — request distribution (1708 requests / 42 services)", Flags: "seed",
		Run: func(p Params) (Output, error) {
			res := fig9And10(p.Seed)
			return Output{Text: res.String() + histogram("requests/s", res.Trace.RequestsPerSecond(), 10)}, nil
		}},
	{Name: "fig10", Help: "Fig. 10  — deployment distribution over five minutes", Flags: "seed",
		Run: func(p Params) (Output, error) {
			res := fig9And10(p.Seed)
			return Output{Text: res.String() + histogram("deployments/s", res.DeploysPerSecond, 1)}, nil
		}},
	{Name: "fig11", Help: "Fig. 11  — scale-up total time, Docker vs Kubernetes", Flags: "seed scale csv obs",
		Run: func(p Params) (Output, error) {
			res, err := scaleUpStudy(p, true)
			return p.figure(res.Totals, err)
		}},
	{Name: "fig12", Help: "Fig. 12  — create + scale-up total time", Flags: "seed scale csv obs",
		Run: func(p Params) (Output, error) {
			res, err := scaleUpStudy(p, false)
			return p.figure(res.Totals, err)
		}},
	{Name: "fig13", Help: "Fig. 13  — image pull times, public vs private registry", Flags: "seed csv obs",
		Run: func(p Params) (Output, error) { return p.figure(fig13Pull(p)) }},
	{Name: "fig14", Help: "Fig. 14  — readiness wait after scale-up", Flags: "seed scale csv obs",
		Run: func(p Params) (Output, error) {
			res, err := scaleUpStudy(p, true)
			return p.figure(res.ReadyWait, err)
		}},
	{Name: "fig15", Help: "Fig. 15  — readiness wait after create + scale-up", Flags: "seed scale csv obs",
		Run: func(p Params) (Output, error) {
			res, err := scaleUpStudy(p, false)
			return p.figure(res.ReadyWait, err)
		}},
	{Name: "fig16", Help: "Fig. 16  — request time with running instances", Flags: "seed requests csv obs",
		Run: func(p Params) (Output, error) { return p.figure(fig16Warm(p)) }},
	{Name: "hybrid", Help: "§VII     — Docker-first hybrid deployment", Flags: "seed csv obs",
		Run: func(p Params) (Output, error) {
			res, err := hybridStudy(p)
			return p.figure(res.Table, err, fmt.Sprintf("kubernetes took over future requests: %v\n", res.KubernetesTookOver))
		}},
	{Name: "serverless", Help: "§VIII future work: WASM cold start vs containers", Flags: "seed csv",
		Run: func(p Params) (Output, error) { return p.figure(futureWorkServerless(p.Seed)) }},
	{Name: "ablation-memory", Help: "FlowMemory on/off for returning clients", Flags: "seed csv",
		Run: func(p Params) (Output, error) {
			res, err := ablationFlowMemory(p.Seed)
			return p.figure(res.Table, err, fmt.Sprintf("packet-ins: with memory %d, without %d\n", res.PacketInsWith, res.PacketInsWithout))
		}},
	{Name: "ablation-timeout", Help: "switch idle-timeout sweep", Flags: "seed csv",
		Run: func(p Params) (Output, error) {
			res, err := ablationIdleTimeout(p.Seed)
			return p.figure(res.Table, err, fmt.Sprintf("packet-ins per setting: %v, peak flow rules: %v\n", res.PacketIns, res.FlowTableSizes))
		}},
	{Name: "ablation-policy", Help: "with-waiting vs no-wait vs hybrid", Flags: "seed csv",
		Run: func(p Params) (Output, error) { return p.figure(ablationWaitingPolicy(p.Seed)) }},
	{Name: "ablation-proactive", Help: "on-demand vs EWMA-predicted proactive deployment", Flags: "seed csv",
		Run: func(p Params) (Output, error) {
			res, err := ablationProactive(p.Seed)
			return p.figure(res.Table, err, fmt.Sprintf("proactive deployments: %d\n", res.ProactiveDeployments))
		}},
	{Name: "ablation-probe", Help: "readiness-probe interval sweep", Flags: "seed csv",
		Run: func(p Params) (Output, error) { return p.figure(ablationProbeInterval(p.Seed)) }},
	{Name: "ablation-hierarchy", Help: "fig. 3: cold vs far-warm vs near-warm first request", Flags: "seed csv",
		Run: func(p Params) (Output, error) { return p.figure(ablationHierarchy(p.Seed)) }},
	{Name: "scale-dispatch", Help: "dispatch latency vs cluster count", Flags: "seed clusters serial procs json obs",
		Run: func(p Params) (Output, error) {
			res, err := dispatchScale(p)
			return measured(p, res, err)
		}},
	{Name: "scale-churn", Help: "controller-state bounds under client churn", Flags: "seed clients procs json obs",
		Run: func(p Params) (Output, error) {
			res, err := cookieChurn(p)
			return measured(p, res, err)
		}},
	{Name: "scale-replay", Help: "large-trace replay cost", Flags: "seed replay-requests procs json obs",
		Run: func(p Params) (Output, error) {
			res, err := replayScale(p)
			return measured(p, res, err)
		}},
	{Name: "scale-shard", Help: "sharded multi-region replay; fingerprints are bit-identical\nat every shard count",
		Flags: "seed replay-requests shards procs json obs",
		Run: func(p Params) (Output, error) {
			res, err := replayShard(p)
			return measured(p, res, err)
		}},
	{Name: "scale-steer", Help: "steering backend comparison: per-flow openflow rules vs\nstateless SRv6-style ingress encoding over a client-count axis",
		Flags: "seed replay-requests backend procs json",
		Run: func(p Params) (Output, error) {
			res, err := steerSweep(p.Seed, p.ReplayRequests, p.Backends)
			return measured(p, res, err)
		}},
	{Name: "scale-mobility", Help: "handover comparison under client mobility: continuity gap\nand flow-mod churn per backend across handover rates, with\nsharded fingerprint parity",
		Flags: "seed replay-requests backend procs json",
		Run: func(p Params) (Output, error) {
			res, err := mobilitySweep(p.Seed, p.ReplayRequests, p.Backends)
			return measured(p, res, err)
		}},
	{Name: "scale-attrib", Help: "latency attribution sweep: per-phase dispatch breakdown,\nopenflow vs srv6 across the client axis, plus the\nattribution determinism gates at shards 1/2/4/8",
		Flags: "seed replay-requests procs json",
		Run: func(p Params) (Output, error) {
			res, err := attribSweep(p.Seed, p.ReplayRequests)
			return measured(p, res, err)
		}},
	{Name: "sweep", Help: "parallel with/without-waiting sweep across seeds",
		Flags: "sweep-seeds sweep-requests procs json obs",
		Run: func(p Params) (Output, error) {
			res, err := runSweep(p, waitingSweep(p.SweepSeeds, p.SweepRequests))
			return measured(p, res, err)
		}},
	{Name: "scale-faults", Help: "deterministic fault-injection sweep: retries, next-best\nfallback, and cloud fallback under increasing fault rates",
		Flags: "seed fault-rates sweep-requests procs json obs",
		Run: func(p Params) (Output, error) {
			res, err := runSweep(p, faultSweepVariants(p.Seed, p.SweepRequests, p.Rates))
			return measured(p, faultSweepResult{res}, err)
		}},
	// Every row above, in order: none is excluded. Its flags are the union
	// of theirs minus the ones naming one output each (TestExperimentTable
	// keeps that true).
	{Name: "all", Help: "run every experiment above, in this order",
		Flags: "seed scale requests csv clusters clients serial replay-requests backend shards procs " +
			"sweep-seeds sweep-requests fault-rates counters attrib slo"},
}

// figure is a paper-figure row's Output: the table, as CSV with -csv,
// followed by the notes lines.
func (p Params) figure(t *metrics.Table, err error, notes ...string) (Output, error) {
	if err != nil {
		return Output{}, err
	}
	s := t.String()
	if p.CSV {
		s = t.CSV()
	}
	return Output{Text: s + strings.Join(notes, "")}, nil
}

// measured is a scale or sweep row's Output: the result's text and its JSON,
// one entry or a list, with what the run-wide sinks gathered on the last
// entry: the counter snapshot (the registry accumulates over all of the
// run's parts), unless the entry carries counters of its own, and the
// attribution block.
func measured[J JSONResult | []JSONResult](p Params, res interface {
	String() string
	JSON() J
}, err error) (Output, error) {
	if err != nil {
		return Output{}, err
	}
	out := Output{Text: res.String(), JSON: res.JSON()}
	entries, list := out.JSON.([]JSONResult)
	if !list {
		entries = []JSONResult{out.JSON.(JSONResult)}
	}
	last := &entries[len(entries)-1]
	if last.Counters == nil {
		last.Counters = p.Counters.Map()
	}
	if p.Attrib != nil {
		attribReportMetrics(last.Metrics, p.Attrib.Report())
	}
	if !list {
		out.JSON = entries[0]
	}
	return out, nil
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
