package workload

import (
	"testing"
	"time"
)

func TestGenerateHandoversDeterministic(t *testing.T) {
	cfg := MobilityConfig{Seed: 42, Clients: 20, Cells: 2, Duration: 5 * time.Minute,
		MeanDwell: 45 * time.Second, MinDwell: 2 * time.Second}
	a := GenerateHandovers(cfg)
	b := GenerateHandovers(cfg)
	if len(a) == 0 {
		t.Fatal("no handovers generated")
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("handover %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	cfg.Seed = 43
	c := GenerateHandovers(cfg)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced the identical schedule")
	}
}

func TestGenerateHandoversShape(t *testing.T) {
	cfg := MobilityConfig{
		Seed: 7, Clients: 10, Cells: 3,
		Duration:  2 * time.Minute,
		MeanDwell: 10 * time.Second,
		MinDwell:  2 * time.Second,
	}
	hs := GenerateHandovers(cfg)
	if len(hs) == 0 {
		t.Fatal("no handovers generated")
	}
	cell := make(map[int]int, cfg.Clients)
	last := make(map[int]time.Duration, cfg.Clients)
	for c := 0; c < cfg.Clients; c++ {
		cell[c] = StartCell(c, cfg.Cells)
	}
	for i, h := range hs {
		if i > 0 && (h.At < hs[i-1].At || (h.At == hs[i-1].At && h.Client < hs[i-1].Client)) {
			t.Fatalf("schedule not sorted at %d: %+v after %+v", i, h, hs[i-1])
		}
		if h.At < 0 || h.At >= cfg.Duration {
			t.Errorf("handover outside the window: %+v", h)
		}
		if h.To == cell[h.Client] {
			t.Errorf("self-handover: %+v, client is at %d", h, cell[h.Client])
		}
		if h.To < 0 || h.To >= cfg.Cells {
			t.Errorf("handover to cell %d outside [0,%d)", h.To, cfg.Cells)
		}
		if gap := h.At - last[h.Client]; gap < cfg.MinDwell {
			t.Errorf("client %d dwell %v below the %v floor", h.Client, gap, cfg.MinDwell)
		}
		cell[h.Client] = h.To
		last[h.Client] = h.At
	}
}

func TestGenerateHandoversEdgeCases(t *testing.T) {
	base := MobilityConfig{
		Seed: 1, Clients: 4, Cells: 2,
		Duration: time.Minute, MeanDwell: 10 * time.Second,
	}
	for name, mutate := range map[string]func(*MobilityConfig){
		"no clients":  func(c *MobilityConfig) { c.Clients = 0 },
		"single cell": func(c *MobilityConfig) { c.Cells = 1 },
		"no window":   func(c *MobilityConfig) { c.Duration = 0 },
	} {
		cfg := base
		mutate(&cfg)
		if hs := GenerateHandovers(cfg); hs != nil {
			t.Errorf("%s: generated %d handovers, want none", name, len(hs))
		}
	}
	// Faster handover rates produce strictly more events.
	slow := GenerateHandovers(base)
	fast := base
	fast.MeanDwell = 2 * time.Second
	if got := GenerateHandovers(fast); len(got) <= len(slow) {
		t.Errorf("dwell 2s produced %d handovers vs %d at 10s, want more", len(got), len(slow))
	}
}
