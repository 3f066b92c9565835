package obs

import (
	"bytes"
	"strings"
	"testing"
)

// TestPrometheusRoundTrip writes a registry — including label-bearing
// series — as text exposition and parses it back.
func TestPrometheusRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Register(emits(
		Sample{`deploy_retries_total{cluster="egs-docker",phase="pull"}`, "counter", 3},
		Sample{`deploy_retries_total{cluster="far-docker",phase="scale_up"}`, "counter", 1},
		Sample{"dispatch_packet_ins_total", "counter", 42},
		Sample{"replay_inflight", "gauge", 7},
	))

	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	// One TYPE header per base name, even with two labeled variants.
	if n := strings.Count(text, "# TYPE deploy_retries_total counter"); n != 1 {
		t.Fatalf("deploy_retries_total TYPE headers = %d, want 1\n%s", n, text)
	}
	parsed, err := ParsePrometheus(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	want := r.Map()
	if len(parsed) != len(want) {
		t.Fatalf("parsed %d series, want %d: %v vs %v", len(parsed), len(want), parsed, want)
	}
	for name, v := range want {
		if parsed[name] != v {
			t.Fatalf("series %s = %v after round trip, want %v", name, parsed[name], v)
		}
	}
}

func TestPrometheusParseErrors(t *testing.T) {
	if _, err := ParsePrometheus(strings.NewReader("lonely_name\n")); err == nil {
		t.Fatal("line without value should fail")
	}
	if _, err := ParsePrometheus(strings.NewReader("name notanumber\n")); err == nil {
		t.Fatal("non-numeric value should fail")
	}
	m, err := ParsePrometheus(strings.NewReader("# comment\n\nok 1\n"))
	if err != nil || m["ok"] != 1 {
		t.Fatalf("comment/blank handling: %v %v", m, err)
	}
}

// TestGaugeHighWaterRoundTrip pins the high-water export contract: the _max
// sample of a drained gauge is its own series, labeled gauges put the suffix
// on the metric name (before the label block, so the exposition stays
// spec-conformant), and everything round-trips through the parser.
func TestGaugeHighWaterRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Register(emits(
		Sample{"replay_inflight", "gauge", 0},
		Sample{"replay_inflight_max", "gauge", 9},
		Sample{`pool_warm{cluster="egs docker"}`, "gauge", 0},
		Sample{`pool_warm_max{cluster="egs docker"}`, "gauge", 5},
	))

	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r); err != nil {
		t.Fatal(err)
	}
	text := buf.String()

	// Every sample line must carry a well-formed metric name: no characters
	// after the closing label brace (the pre-fix exporter emitted
	// `pool_warm{...}_max`, which a conformant scraper rejects outright).
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if i := strings.IndexByte(line, '}'); i >= 0 {
			if rest := line[i+1:]; !strings.HasPrefix(rest, " ") {
				t.Fatalf("malformed sample line (text after label block): %q", line)
			}
		}
	}
	if !strings.Contains(text, "# TYPE pool_warm_max gauge") {
		t.Fatalf("missing TYPE header for pool_warm_max:\n%s", text)
	}

	parsed, err := ParsePrometheus(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		"replay_inflight":                     0,
		"replay_inflight_max":                 9,
		`pool_warm{cluster="egs docker"}`:     0,
		`pool_warm_max{cluster="egs docker"}`: 5,
	} {
		if got, ok := parsed[name]; !ok || got != want {
			t.Fatalf("round trip %s = %v (present=%v), want %v\n%s", name, got, ok, want, text)
		}
	}
}
