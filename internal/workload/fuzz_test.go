package workload

import (
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

var csvErrLine = regexp.MustCompile(`line (\d+):`)

// FuzzParseCSV: ParseCSV never panics; a trace it accepts is one Replay can
// run (sorted non-negative arrivals, compacted indices, a window that holds
// every arrival) and survives MarshalCSV unchanged; an error that names a
// line names the line of the input that is at fault.
func FuzzParseCSV(f *testing.F) {
	for _, s := range []string{
		"at_ms,client,service\n100,7,1000\n50,7,2000\n200,9,1000\n",
		"at_ms,client,service\n# comment\n\n5,0,0\n",
		"",
		"at_ms,client,service\n",
		"at_ms,client,service\nx,0,0\n",
		"at_ms,client,service\n5,0\n",
		"at_ms,client,service\n5,0,0,9\n",
		"at_ms,client,service\n-5,0,0\n",
		"at_ms,client,service\n5,-1,0\n",
		"at_ms,client,service\n5,0,oops\n",
		"\n\n 5 , 0 , 0 \r\n+6,+1,+1",
		"9223372036854,0,0\n9223372036855,0,0", // the second overflows time.Duration
		"\n0",                                  // line numbers count from the top of the input
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		tr, err := ParseCSV(src)
		if err != nil {
			if m := csvErrLine.FindStringSubmatch(err.Error()); m != nil {
				n, _ := strconv.Atoi(m[1])
				lines := strings.Split(src, "\n")
				if n < 1 || n > len(lines) {
					t.Fatalf("ParseCSV(%q): %v, but the input has %d lines", src, err, len(lines))
				}
				if ln := strings.TrimSpace(lines[n-1]); ln == "" || strings.HasPrefix(ln, "#") {
					t.Fatalf("ParseCSV(%q): %v, but that line is %q", src, err, lines[n-1])
				}
			}
			return
		}
		c := tr.Config
		if len(tr.Requests) == 0 || c.TotalRequests != len(tr.Requests) || c.MinPerService < 1 {
			t.Fatalf("ParseCSV(%q): %d requests, config %+v", src, len(tr.Requests), c)
		}
		var prev time.Duration
		for i, r := range tr.Requests {
			if r.At < prev || r.At >= c.Duration || r.Client < 0 || r.Client >= c.Clients || r.Service < 0 || r.Service >= c.Services {
				t.Fatalf("ParseCSV(%q): request %d = %+v after %v, config %+v", src, i, r, prev, c)
			}
			prev = r.At
		}
		back, err := ParseCSV(tr.MarshalCSV())
		if err != nil {
			t.Fatalf("ParseCSV(%q) accepted, its MarshalCSV rejected: %v", src, err)
		}
		if back.Config != tr.Config || len(back.Requests) != len(tr.Requests) {
			t.Fatalf("ParseCSV(%q): round trip config %+v, want %+v", src, back.Config, tr.Config)
		}
		for i := range tr.Requests {
			if back.Requests[i].At != tr.Requests[i].At {
				t.Fatalf("ParseCSV(%q): round trip moved request %d from %v to %v", src, i, tr.Requests[i].At, back.Requests[i].At)
			}
		}
	})
}
