package main

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"transparentedge/internal/workload"
)

// TestBadConfigExits2: a configuration the generator cannot satisfy is a
// usage error naming the problem, not a panic.
func TestBadConfigExits2(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-services", "0"}, "0 services"},
		{[]string{"-requests", "10"}, "42 services x 20 min > 10 total"},
		{[]string{"-duration", "-5s", "-format", "csv"}, "duration -5s"},
		{[]string{"-duration", "0s"}, "duration 0s"},
		{[]string{"-services", "42", "-requests", "42", "-min", "0", "-format", "csv"}, "minimum 0 requests per service"},
		{[]string{"-services", "42", "-requests", "42", "-min", "-1", "-format", "csv"}, "minimum -1 requests per service"},
		{[]string{"-clients", "0"}, "0 clients"},
		{[]string{"-clients", "-4"}, "-4 clients"},
		{[]string{"-format", "xml"}, `unknown format "xml"`},
		{[]string{"extra"}, `unexpected argument "extra"`},
		{[]string{"-seed", "7", "extra"}, `unexpected argument "extra"`},
	} {
		var out, errb bytes.Buffer
		code := cli(tc.args, &out, &errb)
		if code != 2 || out.Len() != 0 || !strings.HasPrefix(errb.String(), "tracegen: ") || !strings.Contains(errb.String(), tc.want) {
			t.Errorf("tracegen %v: exit %d, stdout %q, stderr %q; want exit 2, no output and an error saying %q",
				tc.args, code, out.String(), errb.String(), tc.want)
		}
	}
}

// TestCSVStaysInWindow: a window shorter than the early-start burst still
// holds every row of the generated trace.
func TestCSVStaysInWindow(t *testing.T) {
	var out, errb bytes.Buffer
	if code := cli(strings.Fields("-duration 500ms -requests 100 -services 2 -min 2 -format csv"), &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	tr, err := workload.ParseCSV(out.String())
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Requests) != 100 {
		t.Fatalf("%d rows, want 100", len(tr.Requests))
	}
	for i, r := range tr.Requests {
		if r.At > 500*time.Millisecond {
			t.Errorf("row %d at %v, after the 500ms window", i, r.At)
		}
	}
}
