package workload

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"transparentedge/internal/catalog"
	"transparentedge/internal/testbed"
)

func TestGenerateMatchesPaperMarginals(t *testing.T) {
	tr := Generate(DefaultConfig(1))
	if got := len(tr.Requests); got != 1708 {
		t.Fatalf("requests = %d, want 1708", got)
	}
	counts := tr.RequestsPerService()
	if len(counts) != 42 {
		t.Fatalf("services = %d, want 42", len(counts))
	}
	for i, c := range counts {
		if c < 20 {
			t.Errorf("service %d received %d requests, want >=20", i, c)
		}
	}
	// Heavy tail: the most popular service gets several times the minimum.
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < 100 {
		t.Errorf("max per-service requests = %d, want a heavy tail (>100)", max)
	}
	// All arrivals inside the 5-minute window, sorted.
	last := time.Duration(-1)
	for _, r := range tr.Requests {
		if r.At < 0 || r.At > 5*time.Minute {
			t.Fatalf("arrival %v outside window", r.At)
		}
		if r.At < last {
			t.Fatal("requests not sorted by arrival")
		}
		last = r.At
		if r.Client < 0 || r.Client >= 20 {
			t.Fatalf("client %d out of range", r.Client)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(DefaultConfig(7))
	b := Generate(DefaultConfig(7))
	if len(a.Requests) != len(b.Requests) {
		t.Fatal("lengths differ")
	}
	for i := range a.Requests {
		if a.Requests[i] != b.Requests[i] {
			t.Fatalf("request %d differs: %+v vs %+v", i, a.Requests[i], b.Requests[i])
		}
	}
	c := Generate(DefaultConfig(8))
	same := true
	for i := range a.Requests {
		if a.Requests[i] != c.Requests[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestDeploymentBurstEarly(t *testing.T) {
	tr := Generate(DefaultConfig(1))
	arrivals := tr.FirstArrivals()
	if len(arrivals) != 42 {
		t.Fatalf("deployments = %d, want 42", len(arrivals))
	}
	// Front-loading: a solid share of conversations is active right at
	// capture start (fig. 10: up to eight deployments per second early).
	early := 0
	for _, at := range arrivals {
		if at < 5*time.Second {
			early++
		}
	}
	if early < 8 || early > 25 {
		t.Fatalf("%d/42 deployments in first 5s; want an early burst without a pile-up", early)
	}
	maxPerSec := 0
	for _, n := range tr.DeploymentsPerSecond() {
		if n > maxPerSec {
			maxPerSec = n
		}
	}
	if maxPerSec < 2 || maxPerSec > 10 {
		t.Fatalf("max deployments/s = %d, want the paper's <=8-ish burst", maxPerSec)
	}
	buckets := tr.DeploymentsPerSecond()
	sum := 0
	for _, b := range buckets {
		sum += b
	}
	if sum != 42 {
		t.Fatalf("bucketed deployments = %d, want 42", sum)
	}
}

func TestInfeasibleConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("infeasible config did not panic")
		}
	}()
	Generate(Config{Services: 42, TotalRequests: 100, MinPerService: 20, Duration: time.Minute})
}

// TestConfigValidate: Validate names every configuration Generate cannot
// satisfy, and Generate panics on exactly those.
func TestConfigValidate(t *testing.T) {
	feasible := Config{Services: 2, TotalRequests: 4, MinPerService: 2, Clients: 1, Duration: time.Second}
	for _, tc := range []struct {
		name string
		edit func(*Config)
		want string // "" = valid
	}{
		{"feasible", func(*Config) {}, ""},
		{"no services", func(c *Config) { c.Services = 0 }, "0 services"},
		{"negative services", func(c *Config) { c.Services = -3 }, "-3 services"},
		{"below the minimum", func(c *Config) { c.TotalRequests = 3 }, "2 services x 2 min > 3 total"},
		{"no minimum", func(c *Config) { c.MinPerService = 0 }, "minimum 0 requests per service"},
		{"negative minimum", func(c *Config) { c.MinPerService = -1 }, "minimum -1 requests per service"},
		{"no clients", func(c *Config) { c.Clients = 0 }, "0 clients"},
		{"negative clients", func(c *Config) { c.Clients = -4 }, "-4 clients"},
		{"empty window", func(c *Config) { c.Duration = 0 }, "duration 0s"},
		{"negative window", func(c *Config) { c.Duration = -5 * time.Second }, "duration -5s"},
	} {
		cfg := feasible
		tc.edit(&cfg)
		err := cfg.Validate()
		if tc.want == "" && err != nil || tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("%s: Validate() = %v, want an error saying %q", tc.name, err, tc.want)
		}
		panicked := func() (p bool) {
			defer func() { p = recover() != nil }()
			Generate(cfg)
			return false
		}()
		if panicked != (err != nil) {
			t.Errorf("%s: Generate panicked %v, Validate returned %v", tc.name, panicked, err)
		}
	}
}

// TestGenerateArrivalsInWindow: every arrival lies in [0, Duration], also
// in windows shorter than the three seconds over which the early
// conversations start.
func TestGenerateArrivalsInWindow(t *testing.T) {
	for _, tc := range []struct {
		window                  time.Duration
		services, requests, min int
	}{
		{time.Nanosecond, 2, 10, 2},
		{time.Millisecond, 4, 40, 2},
		{500 * time.Millisecond, 2, 100, 2},
		{2999 * time.Millisecond, 42, 1708, 20},
		{3 * time.Second, 42, 1708, 20},
		{5 * time.Minute, 42, 1708, 20},
	} {
		for seed := int64(1); seed <= 5; seed++ {
			tr := Generate(Config{Seed: seed, Services: tc.services, TotalRequests: tc.requests,
				MinPerService: tc.min, Duration: tc.window, Clients: 5})
			if len(tr.Requests) != tc.requests {
				t.Fatalf("window %v, seed %d: %d requests, want %d", tc.window, seed, len(tr.Requests), tc.requests)
			}
			for i, r := range tr.Requests {
				if r.At < 0 || r.At > tc.window {
					t.Fatalf("window %v, seed %d: request %d at %v, outside [0, %v]", tc.window, seed, i, r.At, tc.window)
				}
			}
		}
	}
}

// Property: for any feasible parameters, totals and minimums hold.
func TestQuickGenerateInvariants(t *testing.T) {
	f := func(services, minPer uint8, extra uint16) bool {
		s := int(services%20) + 1
		m := int(minPer%10) + 1
		total := s*m + int(extra%500)
		cfg := Config{
			Seed: 3, Services: s, TotalRequests: total,
			MinPerService: m, Duration: time.Minute, Clients: 5,
		}
		tr := Generate(cfg)
		if len(tr.Requests) != total {
			return false
		}
		for _, c := range tr.RequestsPerService() {
			if c < m {
				return false
			}
		}
		return len(tr.FirstArrivals()) == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
}

func TestRequestsPerSecondConserved(t *testing.T) {
	tr := Generate(DefaultConfig(1))
	sum := 0
	for _, b := range tr.RequestsPerSecond() {
		sum += b
	}
	if sum != len(tr.Requests) {
		t.Fatalf("bucketed = %d, want %d", sum, len(tr.Requests))
	}
}

func TestReplaySmallTraceOnDocker(t *testing.T) {
	// A reduced trace keeps the unit test quick while exercising the full
	// replay machinery: registration, pre-pull/create, arrivals, metrics.
	cfg := Config{
		Seed: 1, Services: 4, TotalRequests: 40, MinPerService: 5,
		Duration: 30 * time.Second, Clients: 5, ZipfS: 1.2, FrontLoad: 1.5,
	}
	tr := Generate(cfg)
	tb := testbed.New(testbed.Options{Seed: 1, EnableDocker: true, NumClients: 5})
	res, err := Replay(tb, tr, catalog.Nginx, true, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("errors = %d", res.Errors)
	}
	if res.Totals.Len() != 40 {
		t.Fatalf("measured = %d, want 40", res.Totals.Len())
	}
	if res.FirstRequests.Len() != 4 {
		t.Fatalf("first requests = %d, want 4", res.FirstRequests.Len())
	}
	// First requests include a scale-up; they must be slower than the
	// overall median (which is dominated by warm requests).
	if res.FirstRequests.Median() <= res.Totals.Median() {
		t.Fatalf("first median %v <= overall median %v",
			res.FirstRequests.Median(), res.Totals.Median())
	}
	// Warm Docker scale-up (pre-pulled, pre-created) stays under a second.
	if res.FirstRequests.Median() > time.Second {
		t.Fatalf("first-request median = %v, want <1s", res.FirstRequests.Median())
	}
	// Exactly one deployment per service.
	recs := tb.Ctrl.RecordsFor("egs-docker", "")
	scaleUps := 0
	for _, r := range recs {
		if r.DidScaleUp {
			scaleUps++
		}
	}
	if scaleUps != 4 {
		t.Fatalf("scale-ups = %d, want 4", scaleUps)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	orig := Generate(DefaultConfig(5))
	csv := orig.MarshalCSV()
	back, err := ParseCSV(csv)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Requests) != len(orig.Requests) {
		t.Fatalf("requests = %d, want %d", len(back.Requests), len(orig.Requests))
	}
	if back.Config.Services != 42 || back.Config.Clients != orig.Config.Clients {
		t.Fatalf("derived config = %+v", back.Config)
	}
	// Millisecond truncation is the only permitted difference.
	for i := range back.Requests {
		o, b := orig.Requests[i], back.Requests[i]
		if b.Service != o.Service || b.Client != o.Client {
			// Same-millisecond reordering is acceptable; verify at least
			// the timestamps are non-decreasing and counts match.
			continue
		}
		if d := o.At - b.At; d < 0 || d >= time.Millisecond {
			t.Fatalf("request %d time drift %v", i, d)
		}
	}
	// Service IDs are compacted in first-appearance order, so compare the
	// per-service count multisets rather than index-aligned values.
	perOrig := orig.RequestsPerService()
	perBack := back.RequestsPerService()
	sort.Ints(perOrig)
	sort.Ints(perBack)
	for i := range perOrig {
		if perOrig[i] != perBack[i] {
			t.Fatalf("sorted count %d: %d != %d", i, perBack[i], perOrig[i])
		}
	}
}

func TestParseCSVCompactsIDs(t *testing.T) {
	src := "at_ms,client,service\n100,7,1000\n50,7,2000\n200,9,1000\n"
	tr, err := ParseCSV(src)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Config.Services != 2 || tr.Config.Clients != 2 || tr.Config.TotalRequests != 3 {
		t.Fatalf("config = %+v", tr.Config)
	}
	if tr.Requests[0].At != 50*time.Millisecond {
		t.Fatalf("not sorted: %+v", tr.Requests)
	}
	for _, r := range tr.Requests {
		if r.Service > 1 || r.Client > 1 {
			t.Fatalf("ids not compacted: %+v", r)
		}
	}
}

func TestParseCSVErrors(t *testing.T) {
	cases := []string{
		"",
		"at_ms,client,service\n",
		"at_ms,client,service\nx,0,0\n",
		"at_ms,client,service\n5,0\n",
		"at_ms,client,service\n5,0,0,9\n",
		"at_ms,client,service\n-5,0,0\n",
		"at_ms,client,service\n5,-1,0\n",
		"at_ms,client,service\n5,0,oops\n",
		"at_ms,client,service\n9223372036855,0,0\n", // overflows time.Duration
	}
	for _, src := range cases {
		if _, err := ParseCSV(src); err == nil {
			t.Errorf("ParseCSV(%q) accepted", src)
		}
	}
	// Line numbers count from the top of the input, blank lines included.
	if _, err := ParseCSV("\n\nat_ms,client,service\n5,0,0\n9223372036855,0,0\n"); err == nil || !strings.Contains(err.Error(), "line 5:") {
		t.Errorf("overflowing at_ms on line 5: err = %v", err)
	}
	// Comments and blank lines are tolerated.
	tr, err := ParseCSV("at_ms,client,service\n# comment\n\n5,0,0\n")
	if err != nil || len(tr.Requests) != 1 {
		t.Fatalf("tolerant parse = %v, %v", tr, err)
	}
}
