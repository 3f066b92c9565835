// Package workload generates the request trace of the paper's evaluation
// and replays it against a testbed.
//
// The paper extracts TCP conversations to public port-80 addresses from the
// five-minute bigFlows.pcap capture, keeps the destinations receiving at
// least 20 requests, and obtains 42 edge services receiving 1708 requests
// (fig. 9), whose first contacts trigger 42 on-demand deployments with a
// burst of up to eight deployments per second at the start (fig. 10). The
// capture itself is not redistributable, so this package synthesizes a
// trace with the same published marginals: request total and per-service
// minimum, a heavy-tailed (Zipf-like) popularity distribution, and a
// front-loaded arrival process that reproduces the early deployment burst.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"
)

// Config parameterizes trace generation. The zero value is not usable; use
// DefaultConfig for the paper's numbers.
type Config struct {
	Seed          int64
	Services      int           // distinct edge services (42)
	TotalRequests int           // total requests (1708)
	MinPerService int           // minimum requests per service (20)
	Duration      time.Duration // capture window (5 min)
	Clients       int           // requesting clients (20 RPis)
	// ZipfS is the popularity skew exponent (>1 for a heavy tail).
	ZipfS float64
	// FrontLoad skews arrival times toward the window start; 1 = uniform,
	// larger values concentrate arrivals earlier (u^FrontLoad scaling).
	FrontLoad float64
}

// DefaultConfig reproduces the paper's trace parameters.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:          seed,
		Services:      42,
		TotalRequests: 1708,
		MinPerService: 20,
		Duration:      5 * time.Minute,
		Clients:       20,
		ZipfS:         1.15,
		FrontLoad:     1.25,
	}
}

// Request is one trace entry.
type Request struct {
	At      time.Duration // arrival offset from trace start
	Client  int           // client index [0, Clients)
	Service int           // service index [0, Services)
}

// Trace is a generated request trace, sorted by arrival time.
type Trace struct {
	Config   Config
	Requests []Request
}

// Validate reports why Generate cannot synthesize a trace from cfg: no
// services, a per-service minimum below the one start request every service
// gets, fewer requests than every service's minimum, no clients, or an empty
// window.
func (cfg Config) Validate() error {
	switch {
	case cfg.Services <= 0:
		return fmt.Errorf("workload: infeasible config: %d services, want at least 1", cfg.Services)
	case cfg.MinPerService < 1:
		return fmt.Errorf("workload: infeasible config: minimum %d requests per service, want at least 1", cfg.MinPerService)
	case cfg.TotalRequests < cfg.Services*cfg.MinPerService:
		return fmt.Errorf("workload: infeasible config: %d services x %d min > %d total",
			cfg.Services, cfg.MinPerService, cfg.TotalRequests)
	case cfg.Clients < 1:
		return fmt.Errorf("workload: infeasible config: %d clients, want at least 1", cfg.Clients)
	case cfg.Duration <= 0:
		return fmt.Errorf("workload: infeasible config: duration %v, want > 0", cfg.Duration)
	}
	return nil
}

// Generate synthesizes a trace per cfg; every arrival lies in
// [0, cfg.Duration]. It panics on parameters Config.Validate rejects
// (configuration errors).
func Generate(cfg Config) *Trace {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	if cfg.ZipfS <= 0 {
		cfg.ZipfS = 1.15
	}
	if cfg.FrontLoad <= 0 {
		cfg.FrontLoad = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Per-service request counts: minimum floor + Zipf-distributed rest.
	counts := make([]int, cfg.Services)
	for i := range counts {
		counts[i] = cfg.MinPerService
	}
	rest := cfg.TotalRequests - cfg.Services*cfg.MinPerService
	weights := make([]float64, cfg.Services)
	var wsum float64
	for i := range weights {
		weights[i] = 1 / math.Pow(float64(i+1), cfg.ZipfS)
		wsum += weights[i]
	}
	assigned := 0
	for i := range weights {
		share := int(math.Floor(float64(rest) * weights[i] / wsum))
		counts[i] += share
		assigned += share
	}
	// Distribute the rounding remainder to the most popular services.
	for i := 0; assigned < rest; i, assigned = (i+1)%cfg.Services, assigned+1 {
		counts[i]++
	}

	// Arrival times. Each service is a "conversation" with an explicit
	// start (its deployment trigger, fig. 10) followed by its remaining
	// requests. Starts are a mixture: a share of conversations is already
	// active when the capture begins (they start within the first three
	// seconds, or the whole window if it is shorter, producing the paper's
	// burst of up to ~8 deployments per second), the rest spread over the
	// window with a front-loaded bias. The trace holds exactly
	// TotalRequests requests.
	reqs := make([]Request, 0, cfg.TotalRequests)
	earlyShare := (cfg.Services*3 + 9) / 10 // 30% of conversations, rounded up
	earlyPick := rng.Perm(cfg.Services)
	early := make([]bool, cfg.Services)
	for _, idx := range earlyPick[:earlyShare] {
		early[idx] = true
	}
	for svc, n := range counts {
		var start time.Duration
		if early[svc] {
			u := rng.Float64()
			start = time.Duration(u * 3 * float64(time.Second))
			if cfg.Duration < 3*time.Second {
				start = time.Duration(u * float64(cfg.Duration))
			}
		} else {
			start = time.Duration(math.Pow(rng.Float64(), 1.1) * 0.9 * float64(cfg.Duration))
		}
		reqs = append(reqs, Request{
			At:      start,
			Client:  rng.Intn(cfg.Clients),
			Service: svc,
		})
		span := float64(cfg.Duration - start)
		for j := 1; j < n; j++ {
			at := start + time.Duration(math.Pow(rng.Float64(), cfg.FrontLoad)*span)
			reqs = append(reqs, Request{
				At:      at,
				Client:  rng.Intn(cfg.Clients),
				Service: svc,
			})
		}
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
	return &Trace{Config: cfg, Requests: reqs}
}

// RequestsPerService returns the per-service request counts (fig. 9's
// distribution), indexed by service.
func (t *Trace) RequestsPerService() []int {
	counts := make([]int, t.Config.Services)
	for _, r := range t.Requests {
		counts[r.Service]++
	}
	return counts
}

// FirstArrivals returns each service's first request time — the on-demand
// deployment times of fig. 10 — sorted ascending.
func (t *Trace) FirstArrivals() []time.Duration {
	first := make(map[int]time.Duration, t.Config.Services)
	for _, r := range t.Requests {
		if cur, ok := first[r.Service]; !ok || r.At < cur {
			first[r.Service] = r.At
		}
	}
	out := make([]time.Duration, 0, len(first))
	for _, at := range first {
		out = append(out, at)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// DeploymentsPerSecond buckets FirstArrivals into one-second bins
// (fig. 10's histogram).
func (t *Trace) DeploymentsPerSecond() []int {
	buckets := make([]int, int(t.Config.Duration/time.Second)+1)
	for _, at := range t.FirstArrivals() {
		idx := int(at / time.Second)
		if idx >= len(buckets) {
			idx = len(buckets) - 1
		}
		buckets[idx]++
	}
	return buckets
}

// RequestsPerSecond buckets all arrivals into one-second bins.
func (t *Trace) RequestsPerSecond() []int {
	buckets := make([]int, int(t.Config.Duration/time.Second)+1)
	for _, r := range t.Requests {
		idx := int(r.At / time.Second)
		if idx >= len(buckets) {
			idx = len(buckets) - 1
		}
		buckets[idx]++
	}
	return buckets
}
