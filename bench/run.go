package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	wl "transparentedge/internal/workload"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	// reps is the number of timed reps; seconds, when positive, replaces it
	// with "keep starting reps until this much time has been measured".
	reps    int
	seconds float64
	scale   float64
	out     string
	// trace selects the passes: 0 timed reps only, 1 timed reps and the
	// traced pass, -1 (the default) both, printing everything.
	trace int
	// setups is how many times set-up runs when its median is reported as
	// setup_s (with -trace 1 it is not, and set-up runs once); the smoke
	// test lowers it.
	setups int
}

// workloadResult is one workload's entry in results.json.
type workloadResult struct {
	Name     string `json:"name"`
	Why      string `json:"why"`
	Requests int    `json:"requests"`
	Services int    `json:"services"`
	Shards   int    `json:"shards"`

	// Correct is the output check; Checks lists what failed.
	Correct bool     `json:"correct"`
	Checks  []string `json:"failed_checks,omitempty"`
	// Attempted and Failed count one rep's requests; a request that errors
	// or never completes is failed.
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	// LostIndices lists up to ten trace indices of requests that never
	// completed, found on the traced rep.
	LostIndices []int `json:"lost_request_indices,omitempty"`

	EndToEnd map[string]value `json:"end_to_end"`
	Modelled map[string]value `json:"modelled"`
	PerLayer map[string]value `json:"per_layer,omitempty"`

	// Raw samples behind the medians.
	SetupS         []float64    `json:"setup_s_samples"`
	Reps           []*repResult `json:"timed_reps"`
	Traced         *repResult   `json:"traced_rep,omitempty"`
	Serial         *repResult   `json:"shards1_rep,omitempty"`
	ProfileSamples int          `json:"cpu_profile_samples,omitempty"`
}

func (r *workloadResult) fail(format string, args ...any) {
	r.Correct = false
	r.Checks = append(r.Checks, fmt.Sprintf(format, args...))
}

// runWorkload measures one workload: set-up, timed reps with tracing off,
// then (unless cfg.trace is 0) one traced rep and the unit drivers. It
// writes the workload's files under cfg.out when that is set.
func runWorkload(cfg config, w *workloadDef) (*workloadResult, error) {
	log := &spanLog{}
	res := &workloadResult{Name: w.Name, Why: w.Why, Correct: true}

	// Set-up: generate the trace and run one warm-up rep at a fifth of the
	// size, so lazy initialisation and heap growth are paid before timing.
	var trace *wl.Trace
	var generateMS float64
	setups := cfg.setups
	if cfg.trace == 1 {
		setups = 1
	}
	for i := 0; i < setups; i++ {
		start := time.Now()
		generateMS = ms(log.span("generate", "workload", func() {
			trace = generate(w, cfg.seed, cfg.scale)
		}))
		warm := generate(w, cfg.seed, cfg.scale/5)
		if _, err := runRep(w, warm, cfg.seed, defaultShards(), false, log, "warm-up"); err != nil {
			return nil, err
		}
		res.SetupS = append(res.SetupS, time.Since(start).Seconds())
	}
	res.Requests, res.Services = len(trace.Requests), trace.Config.Services
	res.Attempted = res.Requests

	// Timed reps: each on a fresh testbed built from the same trace.
	measureStart := time.Now()
	for i := 0; ; i++ {
		if cfg.seconds > 0 {
			if time.Since(measureStart).Seconds() >= cfg.seconds {
				break
			}
		} else if i >= cfg.reps {
			break
		}
		rep, err := runRep(w, trace, cfg.seed, defaultShards(), false, log, fmt.Sprintf("timed-%d", i))
		if err != nil {
			return nil, err
		}
		res.Reps = append(res.Reps, rep)
	}
	first := res.Reps[0]
	res.Shards, res.Failed = first.Shards, first.failed()
	for i, rep := range res.Reps {
		if rep.Fingerprint != first.Fingerprint {
			res.fail("timed rep %d fingerprint %s differs from rep 0's %s", i, rep.Fingerprint, first.Fingerprint)
		}
	}
	res.gate(w, first)

	// A rep's peak RSS includes what earlier reps left reachable (parked
	// procs of the Kubernetes model keep whole testbeds alive: about 38 MiB
	// more per cold-hybrid rep) and the odd GC-timing spike; both only ever
	// add, so the lowest per-rep peak is the replay's own, whatever the
	// number of reps.
	peakRSS := first.PeakRSSMiB
	for _, rep := range res.Reps {
		peakRSS = min(peakRSS, rep.PeakRSSMiB)
	}
	req := float64(res.Requests)
	e2e := map[string]float64{
		"setup_s":        median(res.SetupS),
		"wall_s":         medianOf(res.Reps, func(r *repResult) float64 { return r.WallS }),
		"req_per_s":      medianOf(res.Reps, func(r *repResult) float64 { return float64(r.Completed) / r.WallS }),
		"cpu_s":          medianOf(res.Reps, func(r *repResult) float64 { return r.CPUS }),
		"allocs_per_req": medianOf(res.Reps, func(r *repResult) float64 { return float64(r.Mallocs) / req }),
		"bytes_per_req":  medianOf(res.Reps, func(r *repResult) float64 { return float64(r.Bytes) / req }),
		"peak_rss_mb":    peakRSS,
	}
	res.EndToEnd = withUnits(endToEnd, e2e)
	res.Modelled = withUnits(modelled, modelledValues(first))

	if cfg.trace != 0 {
		if err := res.tracedPass(cfg, w, trace, generateMS, log); err != nil {
			return nil, err
		}
	}
	if cfg.out != "" {
		if err := res.writeFiles(cfg.out, log); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// gate is the correctness gate on one rep's outputs.
func (r *workloadResult) gate(w *workloadDef, rep *repResult) {
	if rep.Completed < 0 || rep.Completed > rep.Requests || rep.Errors > rep.failed() {
		r.fail("completed %d + errors %d do not fit %d requests", rep.Completed, rep.Errors, rep.Requests)
	}
	if want := r.Services * w.DeploysPerService; rep.Deployments != want {
		r.fail("%d deployments, want %d", rep.Deployments, want)
	}
	if rep.Ctrl.DeployFailures != 0 {
		r.fail("%d deployments failed", rep.Ctrl.DeployFailures)
	}
}

// tracedPass runs the traced rep, the shards=1 rep of a sharded workload and
// the unit drivers, and derives the per-layer metrics.
func (r *workloadResult) tracedPass(cfg config, w *workloadDef, trace *wl.Trace, generateMS float64, log *spanLog) error {
	traced, err := runRep(w, trace, cfg.seed, defaultShards(), true, log, "traced")
	if err != nil {
		return err
	}
	r.Traced, r.LostIndices = traced, traced.Lost
	first := r.Reps[0]
	if traced.Fingerprint != first.Fingerprint {
		r.fail("traced rep fingerprint %s differs from the untraced %s: tracing changed the outputs", traced.Fingerprint, first.Fingerprint)
	}
	r.gate(w, traced)
	// The replay layer's own accounting must agree with the derived count:
	// what is still in flight at the end never completed.
	lost, errs := traced.Counters["replay_inflight"], traced.Counters["replay_errors_total"]
	if int(lost)+int(errs) != traced.failed() || int(errs) != traced.Errors {
		r.fail("replay counters (in flight %v, errors %v) disagree with %d failed / %d errors", lost, errs, traced.failed(), traced.Errors)
	}

	in := layerInputs{timed: r.Reps, traced: traced, generateMS: generateMS}
	if w.sharded() {
		in.serial, err = runRep(w, trace, cfg.seed, 1, false, log, "shards-1")
		if err != nil {
			return err
		}
		r.Serial = in.serial
		if in.serial.Fingerprint != first.Fingerprint {
			r.fail("shards=1 fingerprint %s differs from %d shards' %s", in.serial.Fingerprint, first.Shards, first.Fingerprint)
		}
	}
	if in.shares, r.ProfileSamples, err = layerShares(traced.Profile); err != nil {
		return err
	}
	// A smoke-test scale shrinks the unit drivers' sample counts too.
	if in.units, err = runUnits(min(cfg.scale, 1), log); err != nil {
		return err
	}
	vals, err := perLayerValues(in)
	if err != nil {
		return err
	}
	if r.ProfileSamples > 0 {
		var sum float64
		for _, l := range profiledLayers {
			sum += vals[l+".host_share"]
		}
		if math.Abs(sum-1) > 1e-9 {
			r.fail("layer host shares sum to %v, want 1", sum)
		}
	}
	r.PerLayer = withUnits(perLayer, vals)
	return nil
}

func (r *workloadResult) writeFiles(dir string, log *spanLog) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if r.Traced != nil {
		if err := log.write(filepath.Join(dir, r.Name+".spans.json")); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, r.Name+".cpu.pb.gz"), r.Traced.Profile, 0o644); err != nil {
			return err
		}
	}
	return writeJSON(filepath.Join(dir, r.Name+".result.json"), r)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// print writes every metric by name with its unit, then the reconciliation
// and budget lines.
func (r *workloadResult) print(out io.Writer) {
	fmt.Fprintf(out, "\n== %s: %d requests, %d services, %d shard(s), %d timed rep(s)\n",
		r.Name, r.Requests, r.Services, r.Shards, len(r.Reps))
	fmt.Fprintf(out, "   %s\n", r.Why)
	row := func(defs []metricDef, vals map[string]value) {
		for _, m := range defs {
			fmt.Fprintf(out, "  %-36s %16.6g %-6s %s\n", m.Name, vals[m.Name].Value, m.Unit, m.Clock)
		}
	}
	fmt.Fprintf(out, "end to end (median of %d reps; set-up median of %d):\n", len(r.Reps), len(r.SetupS))
	row(endToEnd, r.EndToEnd)
	row(modelled, r.Modelled)
	fmt.Fprintf(out, "  %-36s %16d of %d\n", "failed requests", r.Failed, r.Attempted)
	if len(r.LostIndices) > 0 {
		fmt.Fprintf(out, "  %-36s %v\n", "never completed (trace indices)", r.LostIndices)
	}
	if r.PerLayer != nil {
		fmt.Fprintf(out, "per layer (traced rep, %d CPU samples):\n", r.ProfileSamples)
		row(perLayer[len(modelled):], r.PerLayer)
		var sumShare, sumNS float64
		for _, l := range profiledLayers {
			sumShare += r.PerLayer[l+".host_share"].Value
			sumNS += r.PerLayer[l+".host_ns_per_req"].Value
		}
		fmt.Fprintf(out, "reconciliation: sum of host_share %.6f; sum of host_ns_per_req %.1f ns = cpu_s / requests %.1f ns\n",
			sumShare, sumNS, r.EndToEnd["cpu_s"].Value*1e9/float64(r.Requests))
		for _, l := range []string{"sim", "simnet", "openflow", "kube"} {
			fmt.Fprintf(out, "budget: %-10s count x unit cost / profiled cost = %.3f\n", l, r.PerLayer[l+".budget_ratio"].Value)
		}
	}
	for _, c := range r.Checks {
		fmt.Fprintf(out, "CHECK FAILED (%s): %s\n", r.Name, c)
	}
}

// driverLine is the benchmark contract's last line of standard output.
type driverLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// line selects the metrics the contract asks for: the end-to-end ones with
// -trace 0, the per-layer ones with -trace 1, and both by default.
func (r *workloadResult) line(trace int) driverLine {
	l := driverLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]value{}}
	if trace != 1 {
		for name, v := range r.EndToEnd {
			l.Metrics[name] = v
		}
	}
	if trace != 0 {
		for name, v := range r.PerLayer {
			l.Metrics[name] = v
		}
	}
	return l
}
