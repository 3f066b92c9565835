// Command bench is the repository's benchmark: four workloads over the
// simulator's public packages, end-to-end and per-layer metrics, and a traced
// pass per workload. See README.md in this directory.
//
//	go run ./bench                          # all workloads, timed + traced
//	go run ./bench -workload flow-churn     # one workload
//	go run ./bench -selfcheck               # the suite twice, compared
//
// The benchmark driver runs it as
//
//	<command> --workload NAME --seed N --seconds S --trace 0|1
//
// and reads the JSON object on the last line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// results is results.json: what the run was, and what each workload measured.
type results struct {
	Manifest  Manifest          `json:"manifest"`
	Workloads []*workloadResult `json:"workloads"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	cfg := config{setups: 3}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.workload, "workload", "all", "workload `name`, or all (one process per workload)")
	fs.Int64Var(&cfg.seed, "seed", 42, "seed of the generated traces and the testbeds")
	fs.IntVar(&cfg.reps, "reps", 5, "timed reps per workload")
	fs.Float64Var(&cfg.seconds, "seconds", 0, "measure timed reps for this long instead of -reps")
	fs.Float64Var(&cfg.scale, "scale", 1, "shrink request and service counts by this factor")
	fs.StringVar(&cfg.out, "out", filepath.Join("bench", "out"), "directory for results.json, span files and CPU profiles")
	fs.IntVar(&cfg.trace, "trace", -1, "0: timed reps only; 1: also the traced pass, per-layer metrics on the last line; default: both, everything")
	selfcheck := fs.Bool("selfcheck", false, "run the suite twice and compare the two runs against each metric's bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case fs.NArg() > 0:
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	case cfg.reps < 1 || cfg.seconds < 0 || cfg.scale <= 0 || cfg.trace < -1 || cfg.trace > 1:
		fmt.Fprintln(stderr, "bench: -reps must be at least 1, -seconds at least 0, -scale above 0, -trace 0 or 1")
		return 2
	case cfg.out == "" && (cfg.workload == "all" || *selfcheck):
		fmt.Fprintln(stderr, "bench: running more than one workload needs -out: their processes report through it")
		return 2
	case cfg.workload != "all" && workloadByName(cfg.workload) == nil:
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", cfg.workload)
		return 2
	}

	var err error
	var ok bool
	switch {
	case *selfcheck:
		ok, err = runSelfcheck(cfg, stdout, stderr)
	case cfg.workload == "all":
		ok, err = runAll(cfg, stdout, stderr)
	default:
		ok, err = runOne(cfg, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if !ok {
		return 1
	}
	return 0
}

// runOne measures one workload in this process.
func runOne(cfg config, stdout io.Writer) (bool, error) {
	res, err := runWorkload(cfg, workloadByName(cfg.workload))
	if err != nil {
		return false, err
	}
	res.print(stdout)
	if cfg.out != "" {
		all := results{Manifest: newManifest(cfg), Workloads: []*workloadResult{res}}
		if err := writeJSON(filepath.Join(cfg.out, "results.json"), all); err != nil {
			return false, err
		}
	}
	return res.Correct, printLine(stdout, res.line(cfg.trace))
}

func printLine(stdout io.Writer, l driverLine) error {
	b, err := json.Marshal(l)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", b)
	return err
}

// runAll runs every workload in a process of its own, so peak RSS and GC
// state do not leak from one into the next, and merges their result files
// into results.json.
func runAll(cfg config, stdout, stderr io.Writer) (bool, error) {
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	all := results{Manifest: newManifest(cfg)}
	sum := driverLine{Correct: true, Metrics: map[string]value{}}
	for _, w := range workloads {
		cmd := exec.Command(self,
			"-workload", w.Name,
			"-seed", strconv.FormatInt(cfg.seed, 10),
			"-reps", strconv.Itoa(cfg.reps),
			"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
			"-scale", strconv.FormatFloat(cfg.scale, 'g', -1, 64),
			"-trace", strconv.Itoa(cfg.trace),
			"-out", cfg.out)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		resultPath := filepath.Join(cfg.out, w.Name+".result.json")
		if err := os.Remove(resultPath); err != nil && !os.IsNotExist(err) {
			return false, err // a stale file would pass for this run's
		}
		runErr := cmd.Run()
		var res workloadResult
		b, err := os.ReadFile(resultPath)
		if err == nil {
			err = json.Unmarshal(b, &res)
		}
		if err != nil {
			if runErr != nil {
				return false, fmt.Errorf("workload %s: %w", w.Name, runErr)
			}
			return false, fmt.Errorf("workload %s: %w", w.Name, err)
		}
		all.Workloads = append(all.Workloads, &res)
		sum.Correct = sum.Correct && res.Correct && runErr == nil
		sum.Attempted += res.Attempted
		sum.Failed += res.Failed
	}
	path := filepath.Join(cfg.out, "results.json")
	if err := writeJSON(path, all); err != nil {
		return false, err
	}
	fmt.Fprintf(stdout, "\nresults written to %s\n", path)
	return sum.Correct, printLine(stdout, sum)
}
