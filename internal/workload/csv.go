package workload

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// MarshalCSV renders the trace as "at_ms,client,service" rows with a
// header — the interchange format of cmd/tracegen.
func (t *Trace) MarshalCSV() string {
	var b strings.Builder
	b.WriteString("at_ms,client,service\n")
	for _, r := range t.Requests {
		fmt.Fprintf(&b, "%d,%d,%d\n", r.At.Milliseconds(), r.Client, r.Service)
	}
	return b.String()
}

// maxAtMS is the latest arrival ParseCSV accepts: the derived window, one
// second past it, must still be a time.Duration.
const maxAtMS = int64((math.MaxInt64 - time.Second) / time.Millisecond)

// ParseCSV reads a trace in the MarshalCSV format. This is the bridge for
// replaying externally captured workloads: the paper derives its trace from
// bigFlows.pcap by extracting TCP conversations to public port-80
// addresses; exporting those conversations as (time, client, service) rows
// lets this simulator replay the exact capture instead of the synthetic
// equivalent. Service and client indices are compacted; the window and
// counts are derived from the data.
func ParseCSV(src string) (*Trace, error) {
	var reqs []Request
	clients := map[int]int{}
	services := map[int]int{}
	var maxAt time.Duration
	first := true // the first non-blank line may be the header
	for i, ln := range strings.Split(src, "\n") {
		ln = strings.TrimSpace(ln)
		if ln == "" {
			continue
		}
		header := first && strings.HasPrefix(strings.ToLower(ln), "at_ms")
		first = false
		if header || strings.HasPrefix(ln, "#") {
			continue
		}
		parts := strings.Split(ln, ",")
		if len(parts) != 3 {
			return nil, fmt.Errorf("workload: line %d: want 3 fields, got %d", i+1, len(parts))
		}
		atMS, err := strconv.ParseInt(strings.TrimSpace(parts[0]), 10, 64)
		if err != nil || atMS < 0 || atMS > maxAtMS {
			return nil, fmt.Errorf("workload: line %d: bad timestamp %q", i+1, parts[0])
		}
		cli, err := strconv.Atoi(strings.TrimSpace(parts[1]))
		if err != nil || cli < 0 {
			return nil, fmt.Errorf("workload: line %d: bad client %q", i+1, parts[1])
		}
		svc, err := strconv.Atoi(strings.TrimSpace(parts[2]))
		if err != nil || svc < 0 {
			return nil, fmt.Errorf("workload: line %d: bad service %q", i+1, parts[2])
		}
		if _, ok := clients[cli]; !ok {
			clients[cli] = len(clients)
		}
		if _, ok := services[svc]; !ok {
			services[svc] = len(services)
		}
		at := time.Duration(atMS) * time.Millisecond
		if at > maxAt {
			maxAt = at
		}
		reqs = append(reqs, Request{At: at, Client: clients[cli], Service: services[svc]})
	}
	if len(reqs) == 0 {
		return nil, fmt.Errorf("workload: no requests in trace")
	}
	sort.Slice(reqs, func(i, j int) bool {
		if reqs[i].At != reqs[j].At {
			return reqs[i].At < reqs[j].At
		}
		if reqs[i].Service != reqs[j].Service {
			return reqs[i].Service < reqs[j].Service
		}
		return reqs[i].Client < reqs[j].Client
	})
	// Per-service minimum for the derived config (informational).
	counts := map[int]int{}
	for _, r := range reqs {
		counts[r.Service]++
	}
	min := len(reqs)
	for _, c := range counts {
		if c < min {
			min = c
		}
	}
	return &Trace{
		Config: Config{
			Services:      len(services),
			TotalRequests: len(reqs),
			MinPerService: min,
			Duration:      maxAt + time.Second,
			Clients:       len(clients),
		},
		Requests: reqs,
	}, nil
}
