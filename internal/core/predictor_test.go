package core

import (
	"slices"
	"testing"
	"time"

	"transparentedge/internal/sim"
)

// predictsWithin reports whether p, asked at svc's last observation last,
// predicts svc within horizon: whether its interval estimate is at most
// horizon.
func predictsWithin(p *EWMAPredictor, svc string, last sim.Time, horizon time.Duration) bool {
	return slices.Contains(p.Predict(last, horizon), svc)
}

func TestEWMAPredictorLearnsPeriod(t *testing.T) {
	p := NewEWMAPredictor(0.3)
	// Requests every 60s.
	for i := 0; i < 5; i++ {
		p.Observe("svc", sim.Time(i)*sim.Time(time.Minute))
	}
	last := 4 * sim.Time(time.Minute)
	if predictsWithin(p, "svc", last, 59*time.Second) || !predictsWithin(p, "svc", last, 61*time.Second) {
		t.Fatal("interval estimate not ~60s")
	}
	// At t=4min (last seen), next expected at ~5min.
	now := 4 * sim.Time(time.Minute)
	if preds := p.Predict(now, 30*time.Second); len(preds) != 0 {
		t.Fatalf("predicted too early: %v", preds)
	}
	now = sim.Time(4*time.Minute + 40*time.Second)
	preds := p.Predict(now, 30*time.Second)
	if len(preds) != 1 || preds[0] != "svc" {
		t.Fatalf("predict = %v, want [svc]", preds)
	}
}

func TestEWMAPredictorSingleSampleNotPredicted(t *testing.T) {
	p := NewEWMAPredictor(0.3)
	p.Observe("once", 0)
	if preds := p.Predict(sim.Time(time.Hour), time.Hour); len(preds) != 0 {
		t.Fatalf("predict = %v, want none for single observation", preds)
	}
}

func TestEWMAPredictorAdaptsToChange(t *testing.T) {
	p := NewEWMAPredictor(0.5)
	at := sim.Time(0)
	for i := 0; i < 4; i++ {
		at += sim.Time(time.Minute)
		p.Observe("svc", at)
	}
	// Switch to 10s period.
	for i := 0; i < 12; i++ {
		at += sim.Time(10 * time.Second)
		p.Observe("svc", at)
	}
	if !predictsWithin(p, "svc", at, 15*time.Second) {
		t.Fatal("interval estimate not adapted toward 10s")
	}
}

func TestEWMAPredictorConcurrentObservationsIgnored(t *testing.T) {
	p := NewEWMAPredictor(0.3)
	p.Observe("svc", sim.Time(time.Second))
	p.Observe("svc", sim.Time(time.Second)) // same instant
	if predictsWithin(p, "svc", sim.Time(time.Second), time.Hour) {
		t.Fatal("zero gap gave an interval estimate")
	}
	last := sim.Time(3 * time.Second)
	p.Observe("svc", last)
	if predictsWithin(p, "svc", last, 2*time.Second-1) || !predictsWithin(p, "svc", last, 2*time.Second) {
		t.Fatal("interval estimate not 2s")
	}
}

func TestEWMAPredictorSortedOutput(t *testing.T) {
	p := NewEWMAPredictor(0.3)
	for _, svc := range []string{"zeta", "alpha", "mid"} {
		p.Observe(svc, 0)
		p.Observe(svc, sim.Time(time.Second))
	}
	preds := p.Predict(sim.Time(time.Second), 2*time.Second)
	if len(preds) != 3 || preds[0] != "alpha" || preds[2] != "zeta" {
		t.Fatalf("predict = %v, want sorted", preds)
	}
}

func TestEWMAPredictorBadAlphaDefaults(t *testing.T) {
	p := NewEWMAPredictor(0)
	if p.Alpha != 0.3 {
		t.Fatalf("alpha = %v, want default 0.3", p.Alpha)
	}
	p = NewEWMAPredictor(2)
	if p.Alpha != 0.3 {
		t.Fatalf("alpha = %v, want default 0.3", p.Alpha)
	}
}
