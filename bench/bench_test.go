package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	wl "transparentedge/internal/workload"
)

func smokeConfig(t *testing.T, seed int64) config {
	return config{seed: seed, reps: 1, scale: 0.01, trace: -1, setups: 1, out: t.TempDir()}
}

// exactAcrossRuns are the metrics the smoke test pins: they must repeat
// bit-identically for a seed and change with it.
var exactAcrossRuns = []string{
	"failed_share", "sim_total_p50_ms", "sim_total_p99_ms", "sim_first_p50_ms",
	"sim.events_per_req", "simnet.packets_per_req", "steer.flow_mods_per_req",
}

// TestSmoke runs all four workloads at 1/100 size: every output check passes,
// every artefact is written, exact metrics repeat across two runs of a seed,
// and a second seed changes them.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			var runs [3]*workloadResult
			for i, seed := range []int64{42, 42, 43} {
				cfg := smokeConfig(t, seed)
				res, err := runWorkload(cfg, w)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct {
					t.Fatalf("seed %d: output checks failed: %v", seed, res.Checks)
				}
				runs[i] = res
				for _, m := range perLayer {
					if _, ok := res.PerLayer[m.Name]; !ok {
						t.Errorf("per-layer metric %s missing", m.Name)
					}
				}
				for _, m := range endToEnd {
					if v := res.EndToEnd[m.Name].Value; !(v > 0) {
						t.Errorf("end-to-end metric %s = %v, want above 0", m.Name, v)
					}
				}
				if i > 0 {
					continue
				}
				var events []map[string]any
				readJSON(t, filepath.Join(cfg.out, w.Name+".spans.json"), &events)
				if len(events) == 0 {
					t.Error("span file holds no events")
				}
				prof, err := os.ReadFile(filepath.Join(cfg.out, w.Name+".cpu.pb.gz"))
				if err != nil {
					t.Fatal(err)
				}
				if _, _, err := layerShares(prof); err != nil {
					t.Errorf("CPU profile does not decode: %v", err)
				}
				var back workloadResult
				readJSON(t, filepath.Join(cfg.out, w.Name+".result.json"), &back)
				if back.Name != w.Name || len(back.Reps) != 1 {
					t.Errorf("result file round trip: got %q with %d reps", back.Name, len(back.Reps))
				}
			}
			changed := false
			for _, name := range exactAcrossRuns {
				a, b, c := runs[0].PerLayer[name].Value, runs[1].PerLayer[name].Value, runs[2].PerLayer[name].Value
				if a != b {
					t.Errorf("%s: %v then %v at one seed, want identical", name, a, b)
				}
				changed = changed || a != c
			}
			if !changed {
				t.Error("a second seed changed none of the exact metrics")
			}
			if runs[0].Reps[0].Fingerprint != runs[1].Reps[0].Fingerprint {
				t.Error("fingerprints differ across two runs of one seed")
			}
		})
	}
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// TestDriverContract drives the command line the way the benchmark driver
// does and checks the last line of standard output.
func TestDriverContract(t *testing.T) {
	for trace, defs := range map[string][]metricDef{"0": endToEnd, "1": perLayer} {
		var stdout, stderr bytes.Buffer
		code := run([]string{
			"--workload", "flow-churn", "--seed", "7", "--seconds", "0.05", "--trace", trace,
			"-scale", "0.01", "-out", t.TempDir(),
		}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("trace %s: exit %d: %s", trace, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var got map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
			t.Fatalf("trace %s: last line is not JSON: %v", trace, err)
		}
		if len(got) != 4 {
			t.Errorf("trace %s: last line has keys %v, want correct, attempted, failed, metrics", trace, got)
		}
		var line driverLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatal(err)
		}
		if !line.Correct || line.Attempted < 1 || line.Failed < 0 {
			t.Errorf("trace %s: correct %v attempted %d failed %d", trace, line.Correct, line.Attempted, line.Failed)
		}
		if len(line.Metrics) != len(defs) {
			t.Errorf("trace %s: %d metrics on the last line, want %d", trace, len(line.Metrics), len(defs))
		}
		for _, m := range defs {
			if v, ok := line.Metrics[m.Name]; !ok || v.Unit != m.Unit {
				t.Errorf("trace %s: metric %s = %+v, present %v, want unit %s", trace, m.Name, v, ok, m.Unit)
			}
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "nope"}, &stdout, &stderr); code == 0 || stdout.Len() > 0 {
		t.Errorf("unknown workload: exit %d, stdout %q; want a failure and no result", code, stdout.String())
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the tables the harness runs from
// and to the contract's limits.
func TestBenchmarkJSON(t *testing.T) {
	type entry struct {
		Name, Why, Unit, Better string
		Bound                   *float64
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []entry  `json:"workloads"`
		EndToEnd   []entry  `json:"end_to_end"`
		PerLayer   []entry  `json:"per_layer"`
	}
	readJSON(t, filepath.Join("..", "BENCHMARK.json"), &file)

	if len(file.Paths) != 1 || file.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", file.Paths)
	}
	if file.RunSeconds < 1 || file.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", file.RunSeconds)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := file.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, harness %q / %q", i, got.Name, got.Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind string, got []entry, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the harness", kind, len(got), len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, harness %+v", kind, i, g, m)
			}
			if bounded && (g.Bound == nil || *g.Bound != m.Bound || m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("%s %s: bound %v, harness %v, want in (0, 0.25]", kind, m.Name, g.Bound, m.Bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s %s: per-layer metrics carry no bound", kind, m.Name)
			}
			if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || seen[m.Name] {
				t.Errorf("%s %s (%s): name or unit outside the contract, or name reused", kind, m.Name, m.Unit)
			}
			seen[m.Name] = true
		}
	}
	check("end_to_end", file.EndToEnd, endToEnd, true)
	check("per_layer", file.PerLayer, perLayer, false)
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(perLayer))
	}
	if endToEnd[0].Name != "setup_s" {
		t.Error("setup_s must be an end-to-end metric")
	}
	for _, m := range endToEnd[1:] {
		if m.Bound > endToEnd[0].Bound {
			t.Errorf("%s has a larger bound than setup_s", m.Name)
		}
	}
}

// Synthetic pprof encoding, just enough for the attribution rule.
type protoWriter struct{ b []byte }

func (w *protoWriter) varint(v uint64) {
	for v >= 0x80 {
		w.b = append(w.b, byte(v)|0x80)
		v >>= 7
	}
	w.b = append(w.b, byte(v))
}

func (w *protoWriter) uint(field int, v uint64) {
	w.varint(uint64(field) << 3)
	w.varint(v)
}

func (w *protoWriter) bytes(field int, b []byte) {
	w.varint(uint64(field)<<3 | 2)
	w.varint(uint64(len(b)))
	w.b = append(w.b, b...)
}

// TestLayerSharesRule checks the package-attribution rule on a hand-built
// profile: the innermost internal/ frame wins, through inlined lines and
// nested packages, and samples without one go to the runtime.
func TestLayerSharesRule(t *testing.T) {
	functions := []string{"", // string table index 0 is the empty string
		"runtime.mallocgc",
		"sort.Sort",
		"transparentedge/internal/openflow.(*Switch).AddFlow",
		"transparentedge/internal/core.(*Controller).dispatch",
		"runtime.gcBgMarkWorker",
		"transparentedge/internal/obs/attrib.(*Collector).Observe",
		"main.runRep",
		"transparentedge/internal/spec.Parse",
	}
	var prof protoWriter
	for id := 1; id < len(functions); id++ {
		var fn protoWriter
		fn.uint(1, uint64(id))
		fn.uint(2, uint64(id)) // name = string table entry id
		prof.bytes(5, fn.b)
	}
	// One location per function, except location 2: sort.Sort inlined into
	// AddFlow, innermost line first.
	lines := map[int][]int{1: {1}, 2: {2, 3}, 4: {4}, 5: {5}, 6: {6}, 7: {7}, 8: {8}}
	for id, fns := range lines {
		var loc protoWriter
		loc.uint(1, uint64(id))
		for _, fn := range fns {
			var line protoWriter
			line.uint(1, uint64(fn))
			loc.bytes(4, line.b)
		}
		prof.bytes(4, loc.b)
	}
	sample := func(packed bool, nanos uint64, locs ...uint64) {
		var s protoWriter
		if packed {
			var ids protoWriter
			for _, l := range locs {
				ids.varint(l)
			}
			s.bytes(1, ids.b)
		} else {
			for _, l := range locs {
				s.uint(1, l)
			}
		}
		var vals protoWriter
		vals.varint(1)
		vals.varint(nanos)
		s.bytes(2, vals.b)
		prof.bytes(2, s.b)
	}
	sample(true, 30, 1, 2, 4) // malloc <- sort (inlined in AddFlow) <- dispatch: openflow
	sample(false, 10, 5)      // GC worker: go-runtime
	sample(true, 20, 6, 4)    // attrib under core: obs, the first element under internal/
	sample(false, 35, 1, 7)   // harness frames only: go-runtime
	sample(true, 5, 8, 7)     // a package without a row of its own: spec
	for _, s := range functions {
		prof.bytes(6, []byte(s))
	}

	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(prof.b)
	zw.Close()
	shares, samples, err := layerShares(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if samples != 5 {
		t.Errorf("%d samples, want 5", samples)
	}
	want := map[string]float64{"openflow": 0.30, layerRuntime: 0.45, "obs": 0.20, "spec": 0.05}
	for layer, w := range want {
		if math.Abs(shares[layer]-w) > 1e-12 {
			t.Errorf("%s share %v, want %v", layer, shares[layer], w)
		}
	}
	if len(shares) != len(want) {
		t.Errorf("shares %v, want only %v", shares, want)
	}
	if _, _, err := layerShares([]byte("not gzip")); err == nil {
		t.Error("a corrupt profile decoded without error")
	}
}

// TestGenerate pins what the seed may and may not change in a trace.
func TestGenerate(t *testing.T) {
	for _, w := range workloads {
		canon := generate(w, structureSeed, 0.01)
		plain := wl.Generate(w.Trace(structureSeed, 0.01))
		if len(canon.Requests) != len(plain.Requests) {
			t.Fatalf("%s: %d requests at the structure seed, workload.Generate makes %d", w.Name, len(canon.Requests), len(plain.Requests))
		}
		for i := range plain.Requests {
			if canon.Requests[i] != plain.Requests[i] {
				t.Fatalf("%s: request %d differs from workload.Generate's at the structure seed", w.Name, i)
			}
		}
		other := generate(w, 7, 0.01)
		starts := func(tr *wl.Trace) map[int]time.Duration {
			out := map[int]time.Duration{}
			for i, r := range tr.Requests {
				if _, ok := out[r.Service]; !ok {
					out[r.Service] = r.At
				}
				if r.At < 0 || r.At > tr.Config.Duration || (i > 0 && r.At < tr.Requests[i-1].At) {
					t.Fatalf("%s: request %d at %v is out of order or outside [0, %v]", w.Name, i, r.At, tr.Config.Duration)
				}
			}
			return out
		}
		want, got := starts(canon), starts(other)
		for svc, at := range want {
			if got[svc] != at {
				t.Errorf("%s: service %d starts at %v under seed 7, %v at the structure seed", w.Name, svc, got[svc], at)
			}
		}
		same := len(other.Requests) == len(canon.Requests)
		for i := 0; same && i < len(canon.Requests); i++ {
			same = other.Requests[i] == canon.Requests[i]
		}
		if same {
			t.Errorf("%s: seed 7 made the structure seed's trace", w.Name)
		}
		a, b := canon.RequestsPerService(), other.RequestsPerService()
		for svc := range a {
			if a[svc] != b[svc] {
				t.Errorf("%s: service %d has %d requests under seed 7, %d at the structure seed", w.Name, svc, b[svc], a[svc])
			}
		}
	}
}

func TestLostRequests(t *testing.T) {
	trace := &wl.Trace{}
	for _, at := range []time.Duration{5, 10, 10, 20, 30, 40} {
		trace.Requests = append(trace.Requests, wl.Request{At: at})
	}
	const t0 = 1000
	started := func(ats ...time.Duration) []time.Duration {
		for i := range ats {
			ats[i] += t0
		}
		return ats
	}
	for _, tc := range []struct {
		name   string
		starts []time.Duration
		want   []int
	}{
		{"none lost", started(5, 10, 10, 20, 30, 40), nil},
		// Which of two simultaneous arrivals was lost the spans cannot tell;
		// the earlier index is named.
		{"one of two simultaneous and a later one", started(40, 5, 10, 30), []int{1, 3}},
		{"the first request itself", started(10, 10, 20, 30, 40), []int{0}},
	} {
		got := lostRequests(trace, tc.starts, 10)
		if len(got) != len(tc.want) {
			t.Errorf("%s: lost %v, want %v", tc.name, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("%s: lost %v, want %v", tc.name, got, tc.want)
			}
		}
	}
	if got := lostRequests(trace, started(5), 2); len(got) != 2 {
		t.Errorf("limit 2: lost %v", got)
	}
}

func TestCompareRuns(t *testing.T) {
	mk := func(wall, p50 float64) results {
		return results{Workloads: []*workloadResult{{
			Name:     "w",
			EndToEnd: map[string]value{"wall_s": {Value: wall}},
			Modelled: map[string]value{"sim_total_p50_ms": {Value: p50}},
		}}}
	}
	var out bytes.Buffer
	if !compareRuns(&out, mk(1, 2), mk(1.05, 2)) {
		t.Errorf("wall_s 5%% apart failed its bound:\n%s", out.String())
	}
	if compareRuns(&out, mk(1, 2), mk(1.5, 2)) {
		t.Error("wall_s 50% apart passed its bound")
	}
	if compareRuns(&out, mk(1, 2), mk(1, 2.000001)) {
		t.Error("an exact metric that moved passed")
	}
}
