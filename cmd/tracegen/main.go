// Command tracegen generates the bigFlows-like evaluation workload
// (figs. 9/10) and prints it as a request list (CSV) or as summary
// distributions.
//
// Usage:
//
//	tracegen [-seed N] [-services N] [-requests N] [-min N] [-clients N]
//	         [-duration D] [-format csv|summary] [-load file]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	edge "transparentedge"
	"transparentedge/internal/workload"
)

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

// cli is one tracegen invocation: 0 on success, 1 when a -load file cannot
// be read or parsed, 2 on a usage error (a bad flag, a configuration
// Generate cannot satisfy, an unknown format).
func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seed     = fs.Int64("seed", 42, "generation seed")
		services = fs.Int("services", 42, "distinct edge services")
		requests = fs.Int("requests", 1708, "total requests")
		min      = fs.Int("min", 20, "minimum requests per service")
		clients  = fs.Int("clients", 20, "number of client hosts")
		duration = fs.Duration("duration", 5*time.Minute, "trace window")
		format   = fs.String("format", "summary", "output format: csv or summary")
		load     = fs.String("load", "", "load a trace CSV (e.g. exported from the real capture) instead of generating")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "tracegen: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *format != "csv" && *format != "summary" {
		fmt.Fprintf(stderr, "tracegen: unknown format %q\n", *format)
		return 2
	}

	if *load != "" {
		data, err := os.ReadFile(*load)
		if err != nil {
			fmt.Fprintln(stderr, "tracegen:", err)
			return 1
		}
		tr, err := workload.ParseCSV(string(data))
		if err != nil {
			fmt.Fprintln(stderr, "tracegen:", err)
			return 1
		}
		emit(stdout, tr, *format)
		return 0
	}

	cfg := edge.DefaultTraceConfig(*seed)
	cfg.Services = *services
	cfg.TotalRequests = *requests
	cfg.MinPerService = *min
	cfg.Clients = *clients
	cfg.Duration = *duration
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(stderr, "tracegen:", err)
		return 2
	}
	emit(stdout, edge.GenerateTrace(cfg), *format)
	return 0
}

func emit(w io.Writer, tr *edge.Trace, format string) {
	cfg := tr.Config
	if format == "csv" {
		fmt.Fprint(w, tr.MarshalCSV())
		return
	}
	counts := tr.RequestsPerService()
	minC, maxC := counts[0], counts[0]
	for _, c := range counts {
		if c < minC {
			minC = c
		}
		if c > maxC {
			maxC = c
		}
	}
	fmt.Fprintf(w, "trace: %d requests, %d services, %v window, %d clients\n",
		len(tr.Requests), cfg.Services, cfg.Duration, cfg.Clients)
	fmt.Fprintf(w, "per service: min %d, max %d\n", minC, maxC)
	fmt.Fprintln(w, "requests per service (fig. 9):")
	for i, c := range counts {
		fmt.Fprintf(w, "  svc%02d %4d\n", i, c)
	}
	deploys := tr.DeploymentsPerSecond()
	burst := 0
	for _, d := range deploys {
		if d > burst {
			burst = d
		}
	}
	fmt.Fprintf(w, "deployments (fig. 10): %d total, max %d per second\n",
		cfg.Services, burst)
}
