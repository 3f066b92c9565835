package main

import (
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// processStart anchors the harness's host-time spans.
var processStart = time.Now()

// cpuSeconds returns the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMiB returns the process's resident-set high-water mark: VmHWM from
// /proc/self/status, or getrusage's ru_maxrss (KiB on Linux) where /proc is
// absent.
func peakRSSMiB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				f := strings.Fields(rest)
				if len(f) > 0 {
					if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// resetPeakRSS makes the next peakRSSMiB reading one rep's own: it returns
// the heap the previous rep left behind to the OS and resets the kernel's
// high-water mark (Linux: writing 5 to clear_refs). Where the reset is not
// available every reading is the process-wide peak instead.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // see above
}

// Manifest records what a run was: enough to tell two results.json files
// apart without the command line that produced them.
type Manifest struct {
	Commit     string  `json:"commit"`
	Modified   bool    `json:"modified"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       int64   `json:"seed"`
	Reps       int     `json:"reps"`
	Seconds    float64 `json:"seconds"`
	Scale      float64 `json:"scale"`
	Started    string  `json:"started"`
}

func newManifest(cfg config) Manifest {
	m := Manifest{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       cfg.seed,
		Reps:       cfg.reps,
		Seconds:    cfg.seconds,
		Scale:      cfg.scale,
		Started:    processStart.UTC().Format(time.RFC3339),
	}
	// The commit is whatever the toolchain stamped into the binary; a
	// checkout that is not a git repository (the benchmark driver's) has
	// none, and the manifest says so rather than guessing.
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m.Commit = s.Value
			case "vcs.modified":
				m.Modified = s.Value == "true"
			}
		}
	}
	return m
}
