package attrib

import (
	"strings"
	"testing"
)

// FuzzParseSLOs: ParseSLOs never panics; every objective it accepts is one
// the collector can check (a percentile in (0, 100], a positive threshold)
// and renders back, through String, to a list that parses to the same.
func FuzzParseSLOs(f *testing.F) {
	for _, s := range []string{
		"p99=2ms", "request:p99=2ms", "dispatch:p50=300us", "request:p99.9=5ms",
		"p0=1ms", "p101=1ms", "p99=", "p99=-3ms", "99=2ms", "", "request:",
		"p99=2ms, dispatch:p50=300us", "pNaN=1ms", "p1e2=1h", " a b :p+5=1ns ,p.5=1m0s",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, specs string) {
		slos, err := ParseSLOs(specs)
		if err != nil {
			return
		}
		if (len(slos) == 0) != (specs == "") {
			t.Fatalf("ParseSLOs(%q) = %v", specs, slos)
		}
		rendered := make([]string, len(slos))
		for i, s := range slos {
			if !(s.Quantile > 0 && s.Quantile <= 100) || s.Threshold <= 0 {
				t.Fatalf("ParseSLOs(%q) accepted %+v", specs, s)
			}
			rendered[i] = s.String()
		}
		back, err := ParseSLOs(strings.Join(rendered, ","))
		if err != nil || len(back) != len(slos) {
			t.Fatalf("ParseSLOs(%q) renders as %q, which parses to %v, %v", specs, rendered, back, err)
		}
		for i := range slos {
			if back[i] != slos[i] {
				t.Fatalf("ParseSLOs(%q): %+v renders as %q, which parses to %+v", specs, slos[i], rendered[i], back[i])
			}
		}
	})
}
