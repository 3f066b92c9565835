package experiments

import (
	"fmt"
	"strings"
	"testing"

	"transparentedge/internal/obs"
	"transparentedge/internal/obs/attrib"
	"transparentedge/internal/testbed"
)

// must unwraps a runner's (result, error) pair; in these tests a runner
// error is a broken setup, never the behavior under test.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// An unknown steering backend is an error from runPoint's up-front check at
// every entry point that takes the name — never testbed.NewSteering's panic.
func TestUnknownBackendIsAnError(t *testing.T) {
	single := runOpts{steer: "bogus"}.point(1, 100)
	sharded := single
	sharded.Shards = 2
	_, _, mobilityErr := runMobility(sharded)
	for name, err := range map[string]error{
		"single-site point": second(runPoint(single)),
		"sharded point":     second(runPoint(sharded)),
		"SteerSweep":        second(SteerSweep(1, 100, []string{"bogus"})),
		"MobilitySweep":     second(MobilitySweep(1, 100, []string{"bogus"})),
		"sharded mobility":  mobilityErr,
	} {
		if err == nil || !strings.Contains(err.Error(), `"bogus"`) {
			t.Errorf("%s with backend bogus: err = %v, want one naming the backend", name, err)
		}
	}
	// The names runPoint lets through are exactly the ones NewSteering builds.
	for _, name := range []string{"", "openflow", "srv6", "srsteer"} {
		testbed.NewSteering(name)
	}
}

func second[T any](_ T, err error) error { return err }

// served fails the test unless a point that injected no faults answered
// every request of its trace: none failed, none was still incomplete at the
// run bound. A request nobody answers is a bug (the transparency the paper
// claims means the client cannot tell, let alone recover), not an outcome.
func served(t *testing.T, what string, p PointResult) {
	t.Helper()
	if p.Errors != 0 || p.Unfinished != 0 {
		t.Errorf("%s: %d failed and %d unfinished of %d requests, want every one served", what, p.Errors, p.Unfinished, p.Requests)
	}
}

// TestPointsWithoutFaultsServeEveryRequest runs one point of each shape the
// sweeps build — plain, many clients, sharded, both steering backends,
// mobility, attribution attached — and the reruns of the parity gate, whose
// results the sweeps drop after fingerprinting them.
func TestPointsWithoutFaultsServeEveryRequest(t *testing.T) {
	mobile := func(s pointSpec) pointSpec {
		s.GNBs, s.Dwell = MobilityCells, mobilityDwells[len(mobilityDwells)-1]
		return s
	}
	sharded := func(s pointSpec, shards int) pointSpec {
		s.Shards = shards
		return s
	}
	many := runOpts{}.point(13, 600)
	many.Clients = 200
	for name, s := range map[string]pointSpec{
		"replay":                     runOpts{}.point(3, 600),
		"replay, 200 clients":        many,
		"replay, 2 shards":           sharded(runOpts{}.point(7, 600), 2),
		"srv6":                       runOpts{steer: "srv6"}.point(21, 600),
		"attrib, 4 shards":           sharded(runOpts{attrib: attrib.New(attrib.Options{})}.point(7, 320), 4),
		"mobility openflow":          mobile(runOpts{steer: "openflow"}.point(11, 1000)),
		"mobility srv6":              mobile(runOpts{steer: "srv6"}.point(11, 1000)),
		"mobility openflow, 1 shard": sharded(mobile(runOpts{steer: "openflow"}.point(6, 2500)), 1),
	} {
		run, err := runPoint(s)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		served(t, name, run.PointResult)
	}

	for _, backend := range SteerBackends {
		base := sharded(runOpts{steer: backend}.point(13, 400), 1)
		reruns := 0
		fingerprint := func(s pointSpec) (uint64, error) {
			r, err := replayShard(s)
			reruns++
			served(t, fmt.Sprintf("%s gate rerun %d (%d shards)", backend, reruns, s.Shards), r.PointResult)
			return r.Fingerprint(), err
		}
		_, shardOK, tracedOK, err := parityGate(fingerprint, base, parityShards,
			func(s *pointSpec) { s.Trace, s.Counters = obs.NewTracer(0), obs.NewRegistry() })
		if err != nil || !shardOK || !tracedOK || reruns != len(parityShards)+2 {
			t.Errorf("%s gate: %d reruns, shard/traced match %v/%v, err %v", backend, reruns, shardOK, tracedOK, err)
		}
	}
}

// Every fingerprint in the package starts from the historical literal, not
// the standard FNV-1a offset basis: pin the mixer's output so "fixing" the
// constant (or swapping in hash/fnv) fails here before it re-baselines
// every stored fingerprint.
func TestFingerprintMixerPinned(t *testing.T) {
	h := newFNV()
	h.u64(42)
	h.str("edge")
	if got, want := uint64(h), uint64(0xd2c3ce9a2ea2ae80); got != want {
		t.Errorf("fnv(42, \"edge\") = %#016x, want %#016x", got, want)
	}
}

// The parity gate reports shard and instrumented mismatches separately and
// reruns exactly the specs it was given.
func TestParityGate(t *testing.T) {
	var seen []int
	fp := func(s pointSpec) (uint64, error) {
		seen = append(seen, s.Shards)
		if s.Shards == 4 || s.Cold {
			return 2, nil
		}
		return 1, nil
	}
	serial, shardOK, instrOK, err := parityGate(fp, pointSpec{Shards: 1}, []int{2, 8}, func(s *pointSpec) { s.MaxInFlight = 1 })
	if err != nil || serial != 1 || !shardOK || !instrOK {
		t.Errorf("matching gate = %d/%v/%v/%v, want 1/true/true/nil", serial, shardOK, instrOK, err)
	}
	if _, shardOK, instrOK, _ = parityGate(fp, pointSpec{Shards: 1}, []int{2, 4}, nil); shardOK || !instrOK {
		t.Errorf("shards=4 diverges: shardOK/instrOK = %v/%v, want false/true", shardOK, instrOK)
	}
	if _, shardOK, instrOK, _ = parityGate(fp, pointSpec{Shards: 1}, nil, func(s *pointSpec) { s.Cold = true }); !shardOK || instrOK {
		t.Errorf("instrumented rerun diverges: shardOK/instrOK = %v/%v, want true/false", shardOK, instrOK)
	}
	if want := []int{1, 2, 8, 1, 1, 2, 4, 1, 1}; len(seen) != len(want) {
		t.Errorf("gate ran %v, want shard counts %v", seen, want)
	}
}

// One declaration feeds both renderings: every keyed column lands in the
// flat map, every formatted one in the text, and the layouts line up.
func TestColumnRenderers(t *testing.T) {
	type row struct {
		name string
		n    int
		ok   bool
	}
	cols := []column[row]{
		{"name", "", "%-6s", func(r row) any { return r.name }},
		{"count", "n", "%5d", func(r row) any { return r.n }},
		{"", "ok", "", func(r row) any { return r.ok }},
	}
	r := row{"a", 7, true}
	m := map[string]float64{}
	flatten(m, "p_", cols, r)
	if len(m) != 2 || m["p_n"] != 7 || m["p_ok"] != 1 {
		t.Errorf("flatten = %v, want p_n=7 p_ok=1", m)
	}
	var b strings.Builder
	tableHeader(&b, cols)
	tableRow(&b, cols, r)
	if got, want := b.String(), "  name   count\n  a          7\n"; got != want {
		t.Errorf("table =\n%q, want\n%q", got, want)
	}
	// Listings and inline pairs carry no widths; "/ " continues a line.
	cols = []column[row]{
		{"name", "", "%s", func(r row) any { return r.name }},
		{"/ count", "n", "%d", func(r row) any { return r.n }},
		{"ok", "ok", "%v", func(r row) any { return r.ok }},
	}
	b.Reset()
	listing(&b, cols, r)
	if got, want := b.String(), "  name / count     a / 7\n  ok               true\n"; got != want {
		t.Errorf("listing =\n%q, want\n%q", got, want)
	}
	if got := inline(cols[1:], r); got != "/ count=7 ok=true" {
		t.Errorf("inline = %q", got)
	}
}
