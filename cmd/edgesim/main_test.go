package main

import (
	"os"
	"strings"
	"testing"
)

func TestValidateShards(t *testing.T) {
	for _, n := range []int{1, 2, 8, maxShards} {
		if err := validateShards(n); err != nil {
			t.Errorf("validateShards(%d) = %v, want nil", n, err)
		}
	}
	for _, n := range []int{0, -1, -8} {
		err := validateShards(n)
		if err == nil {
			t.Errorf("validateShards(%d) = nil, want error", n)
			continue
		}
		if !strings.Contains(err.Error(), ">= 1") {
			t.Errorf("validateShards(%d) error %q does not explain the lower bound", n, err)
		}
	}
	if err := validateShards(maxShards + 1); err == nil {
		t.Errorf("validateShards(%d) = nil, want error", maxShards+1)
	}
}

func TestValidateCounts(t *testing.T) {
	for _, tc := range []struct {
		replay, sweep, clients, clusters int
		wantFlag                         string // "" = accepted
	}{
		{10000, 2000, 2000, 16, ""}, // the defaults
		{1, 1, 1, 1, ""},
		{0, 2000, 2000, 16, "-replay-requests"},
		{-5, 2000, 2000, 16, "-replay-requests"},
		{10000, 0, 2000, 16, "-sweep-requests"},
		{10000, -1, 2000, 16, "-sweep-requests"},
		{10000, 2000, 0, 16, "-clients"},
		{10000, 2000, -2000, 16, "-clients"},
		{10000, 2000, 2000, 0, "-clusters"},
		{10000, 2000, 2000, -16, "-clusters"},
		{-1, -1, -1, -1, "-replay-requests"}, // the first offender is named
	} {
		err := validateCounts(tc.replay, tc.sweep, tc.clients, tc.clusters)
		switch {
		case tc.wantFlag == "" && err != nil:
			t.Errorf("validateCounts(%d, %d, %d, %d) = %v, want nil", tc.replay, tc.sweep, tc.clients, tc.clusters, err)
		case tc.wantFlag != "" && err == nil:
			t.Errorf("validateCounts(%d, %d, %d, %d) = nil, want an error naming %s", tc.replay, tc.sweep, tc.clients, tc.clusters, tc.wantFlag)
		case tc.wantFlag != "" && !(strings.HasPrefix(err.Error(), tc.wantFlag+" ") && strings.Contains(err.Error(), ">= 1")):
			t.Errorf("validateCounts(%d, %d, %d, %d) = %q, want it to name %s and the lower bound", tc.replay, tc.sweep, tc.clients, tc.clusters, err, tc.wantFlag)
		}
	}
}

// Every experiment honors -cpuprofile/-memprofile: the profile files must
// exist and be non-empty after run returns. table1 keeps the test cheap —
// the profiling wrapper is experiment-agnostic (it brackets runExperiment).
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := dir + "/cpu.pprof"
	mem := dir + "/mem.pprof"
	oldCPU, oldMem := *cpuProfile, *memProfile
	defer func() { *cpuProfile, *memProfile = oldCPU, oldMem }()
	*cpuProfile, *memProfile = cpu, mem

	if err := run("table1"); err != nil {
		t.Fatalf("run(table1) with profiling: %v", err)
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

// The scale-shard experiment must refuse a bad -shards value before
// building anything (run returns the validation error verbatim).
func TestRunScaleShardRejectsBadShards(t *testing.T) {
	old := *shards
	defer func() { *shards = old }()
	*shards = 0
	err := run("scale-shard")
	if err == nil {
		t.Fatal("run(scale-shard) with -shards 0 must error")
	}
	if !strings.Contains(err.Error(), "-shards") {
		t.Fatalf("error %q does not mention -shards", err)
	}
}
