package main

import (
	"bytes"
	"flag"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"transparentedge/internal/experiments"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from the current output (make golden)")

// run invokes the CLI in-process and returns its exit code and streams.
func run(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = cli(args, &out, &errb)
	return code, out.String(), errb.String()
}

// smallSizes shrinks every workload-sizing flag for the golden runs; each
// run passes the ones its experiment reads.
var smallSizes = [][2]string{
	{"seed", "42"}, {"replay-requests", "600"}, {"sweep-requests", "200"}, {"sweep-seeds", "2"}, {"scale", "0.05"},
}

// masks blank what two runs of the same binary differ in: host wall clock,
// allocation counts and the worker count. Everything else — fingerprints
// and parity lines included — is compared byte for byte.
var masks = []struct {
	re   *regexp.Regexp
	repl string
}{
	{regexp.MustCompile(`wall time +\S+`), "wall time <masked>"},
	{regexp.MustCompile(`\(\S+ wall\)`), "(<masked> wall)"},
	{regexp.MustCompile(`on \d+ workers`), "on <masked> workers"},
	{regexp.MustCompile(`allocs/request +\S+`), "allocs/request <masked>"},
	// The scale-steer table's last column is allocs/request again.
	{regexp.MustCompile(`(?m)^(  (?:openflow|srv6) +\d+ +\d+ +\d+ +\d+ +\S+ +\S+) +[\d.]+$`), "$1 <masked>"},
	{regexp.MustCompile(`("\w*(?:wall_ms|allocs_per_req)": )[-+.\de]+`), "${1}0"},
	// Present only when some shard happened to stall.
	{regexp.MustCompile(`(?m)^ *"group_barrier_stall_wall_ms": .*\n`), ""},
}

// TestGoldenOutputs pins the CLI's output: every experiment in text mode
// and every -json-capable one in JSON mode, at small sizes, against
// testdata/golden (regenerate with -update). Each mode runs three times on
// fresh testbeds and the masked outputs must agree: Go randomises map
// iteration, so a run that depends on map order shows here.
func TestGoldenOutputs(t *testing.T) {
	for i := range experiments.Table {
		e := &experiments.Table[i]
		var args []string
		for _, kv := range smallSizes {
			if reads(e, kv[0]) {
				args = append(args, "-"+kv[0], kv[1])
			}
		}
		modes := map[string][]string{e.Name + ".txt": args}
		if reads(e, "json") {
			modes[e.Name+".json"] = append([]string{"-json"}, args...)
		}
		if e.Run != nil && reads(e, "counters") {
			for file, args := range maps.Clone(modes) {
				modes[strings.Replace(file, ".", ".counters.", 1)] = append([]string{"-counters"}, args...)
			}
		}
		for file, args := range modes {
			args := append(args, e.Name)
			t.Run(file, func(t *testing.T) {
				t.Parallel()
				var got string
				for rep := 1; rep <= 3; rep++ {
					code, out, stderr := run(args...)
					if code != 0 {
						t.Fatalf("edgesim %v: exit %d\n%s", args, code, stderr)
					}
					for _, m := range masks {
						out = m.re.ReplaceAllString(out, m.repl)
					}
					if rep > 1 && out != got {
						t.Fatalf("edgesim %v: run %d differs from run 1, so the output depends on map order:\n%s", args, rep, firstDiff(out, got))
					}
					got = out
				}
				path := filepath.Join("testdata", "golden", file)
				if *update {
					if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if got != string(want) {
					t.Errorf("edgesim %v differs from %s (go test ./cmd/edgesim -run TestGoldenOutputs -update rewrites it):\n%s",
						args, path, firstDiff(got, string(want)))
				}
			})
		}
	}
}

// firstDiff names the first line where got and want part ways.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n  got  %s\n  want %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("got %d lines, want %d", len(g), len(w))
}

// usageErrors runs each command line and requires exit code 2, nothing on
// stdout, and a message naming the offending flag.
func usageErrors(t *testing.T, cases map[string]string) {
	t.Helper()
	for line, wantFlag := range cases {
		code, stdout, stderr := run(strings.Fields(line)...)
		if code != 2 || stdout != "" || !strings.Contains(stderr, wantFlag) {
			t.Errorf("edgesim %s: exit %d, stdout %q, stderr %q; want exit 2, no output, a message naming %s",
				line, code, stdout, stderr, wantFlag)
		}
	}
}

// Every size flag must be >= 1: a smaller value used to be clamped to the
// experiment's own default and run silently.
func TestValidateCounts(t *testing.T) {
	usageErrors(t, map[string]string{
		"-replay-requests 0 scale-replay": "-replay-requests must be >= 1",
		"-replay-requests -5 scale-shard": "-replay-requests must be >= 1",
		"-sweep-requests 0 sweep":         "-sweep-requests must be >= 1",
		"-sweep-requests -1 scale-faults": "-sweep-requests must be >= 1",
		"-sweep-seeds 0 sweep":            "-sweep-seeds must be >= 1",
		"-requests 0 fig16":               "-requests must be >= 1",
		"-clients 0 scale-churn":          "-clients must be >= 1",
		"-clients -2000 scale-churn":      "-clients must be >= 1",
		"-clusters 0 scale-dispatch":      "-clusters must be >= 1",
		"-clusters -16 scale-dispatch":    "-clusters must be >= 1",
		"-procs -3 sweep":                 "-procs must be >= 0",
	})
	if code, _, stderr := run("-replay-requests", "16", "-json", "scale-replay"); code != 0 {
		t.Errorf("the smallest valid size was rejected: exit %d\n%s", code, stderr)
	}
}

func TestValidateShards(t *testing.T) {
	usageErrors(t, map[string]string{
		"-shards 0 scale-shard":  "-shards must be >= 1",
		"-shards -8 scale-shard": "-shards must be >= 1",
		"-shards 65 scale-shard": "-shards 65 exceeds the maximum 64",
	})
	for _, n := range []string{"1", "8", "64"} {
		if code, _, stderr := run("-shards", n, "-replay-requests", "16", "scale-shard"); code != 0 {
			t.Errorf("-shards %s: exit %d\n%s", n, code, stderr)
		}
	}
}

// The scale-shard experiment must refuse a bad -shards value before
// building anything.
func TestRunScaleShardRejectsBadShards(t *testing.T) {
	usageErrors(t, map[string]string{"-shards 0 scale-shard": "-shards"})
}

// The six invocations that used to run silently wrong (ISSUE 17): a NaN
// fault rate, a trace file no span would reach, out-of-range sizes, and
// flags the experiment ignores.
func TestSilentCasesRejected(t *testing.T) {
	usageErrors(t, map[string]string{
		"-fault-rates NaN scale-faults":         "-fault-rates",
		"-trace t.json scale-steer":             "-trace does not apply to scale-steer",
		"-sweep-seeds -2 sweep":                 "-sweep-seeds",
		"-scale 7 fig11":                        "-scale",
		"-requests -4 fig16":                    "-requests",
		"-json -shards 8 -clusters 3 fig13":     "does not apply to fig13",
		"-scale NaN fig11":                      "-scale",
		"-scale 0 fig12":                        "-scale",
		"-fault-rates 0.1,1 scale-faults":       "-fault-rates",
		"-backend quic scale-steer":             "-backend",
		"-slo request:p99 scale-replay":         "-slo",
		"-slo dispach:p99=1us scale-replay":     "request, dispatch, deploy_best, handover",
		"-attrib scale-attrib":                  "-attrib does not apply to scale-attrib",
		"-counters scale-mobility":              "-counters does not apply to scale-mobility",
		"-seed 7 sweep":                         "-seed does not apply to sweep",
		"-json all":                             "-json does not apply to all",
		"-trace t.json all":                     "-trace does not apply to all",
		"-shards 2 scale-replay":                "it is read by: scale-shard, all",
		"fig99":                                 `unknown experiment "fig99"`,
		"-replay-requests 10 -nosuch 1 fig9":    "-nosuch",
		"-replay-requests 10 -scale 0.5 table1": "does not apply to table1",
	})
	if _, err := os.Stat("t.json"); err == nil {
		t.Error("a rejected -trace still created its file")
		os.Remove("t.json")
	}
}

// An experiment that fails after validation exits 1 with the error.
func TestExperimentErrorExits1(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "no-such-dir", "t.json")
	code, stdout, stderr := run("-trace", trace, "-replay-requests", "16", "scale-replay")
	if code != 1 || stdout != "" || !strings.Contains(stderr, "edgesim:") {
		t.Errorf("exit %d, stdout %q, stderr %q; want exit 1 and the error on stderr", code, stdout, stderr)
	}
}

// The table is the single source for usage, `all` and flag applicability:
// every row has help text and a golden, every flag is read by some
// experiment, and `all` runs every other experiment.
func TestExperimentTable(t *testing.T) {
	var f flags
	fs := newFlagSet(&f)
	var usageText bytes.Buffer
	usage(&usageText, fs)
	for i, e := range experiments.Table {
		if e.Help == "" || !strings.Contains(usageText.String(), "  "+e.Name+" ") {
			t.Errorf("%s: no help text in the usage", e.Name)
		}
		if _, err := os.Stat(filepath.Join("testdata", "golden", e.Name+".txt")); err != nil {
			t.Errorf("%s: no golden: %v", e.Name, err)
		}
		for _, name := range strings.Fields(strings.Replace(e.Flags, "obs", obsFlags, 1)) {
			if fs.Lookup(name) == nil {
				t.Errorf("%s lists -%s, which is not a flag", e.Name, name)
			}
		}
		// `all` runs every row that has a run func, so it excludes nothing
		// but itself — which must be the table's last row for "every
		// experiment above" to hold.
		if (e.Run == nil) != (e.Name == "all") || (e.Run == nil) != (i == len(experiments.Table)-1) {
			t.Errorf("%s (row %d): only the last row, all, may lack a run func", e.Name, i)
		}
	}
	flagCount := 0
	fs.VisitAll(func(fl *flag.Flag) {
		flagCount++
		if fl.Name == "cpuprofile" || fl.Name == "memprofile" {
			return
		}
		readers := names(func(e *experiments.Experiment) bool { return e.Run != nil && reads(e, fl.Name) })
		if len(readers) == 0 {
			t.Errorf("-%s is read by no experiment", fl.Name)
		}
		// `all` takes what any member takes, except the one-output flags.
		if want := !contains(perRunFlags, fl.Name); reads(lookup("all"), fl.Name) != want {
			t.Errorf("all reads -%s = %v, want %v (members reading it: %v)", fl.Name, !want, want, readers)
		}
	})
	if flagCount != 23 {
		t.Errorf("edgesim defines %d flags, want 23", flagCount)
	}
}

// scale-dispatch -clusters 1 measures the one-cluster baseline once: one
// line per dispatcher in text mode, one entry in JSON mode.
func TestScaleDispatchOneCluster(t *testing.T) {
	for _, tc := range []struct {
		args  []string
		lines []string
	}{
		{nil, []string{"(parallel state queries)", "(serial state queries)"}},
		{[]string{"-serial"}, []string{"(serial state queries)"}},
	} {
		args := append([]string{"-clusters", "1"}, tc.args...)
		code, stdout, stderr := run(append(args, "scale-dispatch")...)
		if code != 0 {
			t.Fatalf("%v: exit %d\n%s", args, code, stderr)
		}
		got := strings.Split(strings.TrimSpace(stdout), "\n")
		if len(got) != len(tc.lines) {
			t.Fatalf("%v: %d lines, want %d:\n%s", args, len(got), len(tc.lines), stdout)
		}
		for i, want := range tc.lines {
			if !strings.HasPrefix(got[i], "dispatch over 1 clusters "+want) {
				t.Errorf("%v: line %d is %q, want dispatch over 1 clusters %s", args, i+1, got[i], want)
			}
		}
		code, stdout, stderr = run(append(args, "-json", "scale-dispatch")...)
		if code != 0 {
			t.Fatalf("%v -json: exit %d\n%s", args, code, stderr)
		}
		if n := strings.Count(stdout, `"experiment": "scale-dispatch"`); n != 1 {
			t.Errorf("%v -json: %d entries, want 1:\n%s", args, n, stdout)
		}
	}
}

// Every experiment honors -cpuprofile/-memprofile: the profile files must
// exist and be non-empty after the run. table1 keeps the test cheap — the
// profiling wrapper is experiment-agnostic (it brackets runExperiment).
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := dir+"/cpu.pprof", dir+"/mem.pprof"
	if code, _, stderr := run("-cpuprofile", cpu, "-memprofile", mem, "table1"); code != 0 {
		t.Fatalf("table1 with profiling: exit %d\n%s", code, stderr)
	}
	for _, f := range []string{cpu, mem} {
		fi, err := os.Stat(f)
		if err != nil {
			t.Fatalf("profile %s not written: %v", f, err)
		}
		if fi.Size() == 0 {
			t.Fatalf("profile %s is empty", f)
		}
	}
}

// FuzzParseRates: -fault-rates parsing never panics, and every rate it
// accepts is a probability the fault plan can use.
func FuzzParseRates(f *testing.F) {
	for _, s := range []string{"0,0.1,0.3,0.5", "NaN", "1", "-0", " .5 ,", "1e-400", "0x1p-2", "Inf", ""} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		rates, err := parseRates(s)
		if err == nil && len(rates) == 0 {
			t.Fatalf("parseRates(%q) accepted an empty list", s)
		}
		for _, r := range rates {
			if err == nil && (math.IsNaN(r) || r < 0 || r >= 1) {
				t.Fatalf("parseRates(%q) accepted rate %v outside [0,1)", s, r)
			}
		}
	})
}

// scale-shard folds the same eight sites' counters whatever the kernel
// count, so its counter block does not move with -shards. Under -race the
// multi-kernel runs also count on concurrent shards.
func TestShardCountersIndependentOfShards(t *testing.T) {
	var want string
	for _, n := range []string{"1", "2", "4", "8"} {
		code, out, stderr := run("-counters", "-shards", n, "-replay-requests", "600", "scale-shard")
		if code != 0 || !strings.Contains(out, "# TYPE") {
			t.Fatalf("-shards %s: exit %d, no counter block\n%s", n, code, stderr)
		}
		if got := out[strings.Index(out, "# TYPE"):]; want == "" {
			want = got
		} else if got != want {
			t.Errorf("-shards %s: the counter block differs from -shards 1's: %s", n, firstDiff(got, want))
		}
	}
}
