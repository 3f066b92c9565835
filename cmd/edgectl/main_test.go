package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.txt from the current output")

// TestDemoTraceGolden runs the demo scenario with its packet trace on and
// compares stdout byte for byte with testdata/<name>.txt (-update rewrites
// the files; review the diff). The trace stamps each delivery with the
// instant the packet reached the node, so a change in how a node's pipeline
// stage is scheduled must leave every line where it was.
func TestDemoTraceGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"demo-trace", []string{"-trace"}},
		{"demo-trace-full", []string{"-trace", "-trace-max", "1000"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := captureStdout(t, func() {
				if err := demo(tc.args, io.Discard); err != nil {
					t.Fatal(err)
				}
			})
			path := filepath.Join("testdata", tc.name+".txt")
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
				gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
				for i := range min(len(gl), len(wl)) {
					if gl[i] != wl[i] {
						t.Fatalf("line %d differs from %s:\n got  %s\n want %s", i+1, path, gl[i], wl[i])
					}
				}
				t.Fatalf("%d lines, %s has %d", len(gl), path, len(wl))
			}
		})
	}
}

// TestUsageErrorsExit2: a stray argument or an out-of-range flag value is a
// usage error naming it, reported before anything runs.
func TestUsageErrorsExit2(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"demo", "foo"}, `unexpected argument "foo"`},
		{[]string{"demo", "-trace", "extra"}, `unexpected argument "extra"`},
		{[]string{"demo", "-trace", "-trace-max", "-1"}, "-trace-max -1"},
		{[]string{"demo", "-trace", "-trace-max", "0"}, "-trace-max 0"},
		{[]string{"demo", "-no-such-flag"}, "-no-such-flag"},
		{[]string{"schedulers", "extra"}, `unexpected argument "extra"`},
		{[]string{"annotate"}, "exactly one Table I service key"},
		{[]string{"frobnicate"}, "usage:"},
		{nil, "usage:"},
	} {
		var errb bytes.Buffer
		var code int
		out := captureStdout(t, func() { code = cli(tc.args, &errb) })
		if code != 2 || out != "" || !strings.Contains(errb.String(), tc.want) {
			t.Errorf("edgectl %v: exit %d, stdout %q, stderr %q; want exit 2, no output and an error saying %q",
				tc.args, code, out, errb.String(), tc.want)
		}
	}
}

// captureStdout returns what fn writes to os.Stdout.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	defer func() { os.Stdout = saved }()
	fn()
	os.Stdout = saved
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}
