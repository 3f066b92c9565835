package workload

import (
	"math"
	"sort"
	"time"
)

// MobilityConfig parameterizes the handover-event generator: a per-client
// dwell model in the spirit of Fondo-Ferreiro et al.'s VM-migration
// evaluation — each UE camps on a cell for an exponentially distributed
// dwell time (mean MeanDwell, floored at MinDwell, i.e. a shifted
// exponential), then hands over to one of the other cells uniformly at
// random. MeanDwell is the single knob the mobility sweep turns: halving it
// doubles the handover rate.
type MobilityConfig struct {
	Seed     int64
	Clients  int
	Cells    int           // attachment points available to each client (gNBs)
	Duration time.Duration // schedule window (matches the trace window)
	// MeanDwell is the mean time a client stays attached between handovers;
	// MinDwell floors each dwell (a UE cannot ping-pong instantaneously).
	MeanDwell time.Duration
	MinDwell  time.Duration
}

// Handover is one scheduled re-attachment: at offset At from the replay
// anchor, Client moves to cell To, from the cell its previous handover (or
// StartCell) put it in. Cells are per-client indices; the testbed maps
// (client, cell) to a concrete gNB switch.
type Handover struct {
	At     time.Duration
	Client int
	To     int
}

// StartCell returns the cell a client occupies at t=0 — the attachment the
// testbed establishes before replay, and the cell its first handover leaves:
// client i starts at cell i % cells.
func StartCell(client, cells int) int {
	if cells <= 0 {
		return 0
	}
	return client % cells
}

// GenerateHandovers synthesizes the mobility schedule, sorted by time. Every
// draw is a counted splitmix64 hash keyed (seed, client, step) — independent
// of the kernel RNG and of any other generator, so the same config yields
// the same schedule regardless of what else a run draws (the property the
// sharded fingerprint-parity experiments rely on).
func GenerateHandovers(cfg MobilityConfig) []Handover {
	if cfg.Clients <= 0 || cfg.Cells < 2 || cfg.Duration <= 0 {
		return nil
	}
	mean := cfg.MeanDwell
	if mean <= 0 {
		mean = 45 * time.Second
	}
	min := cfg.MinDwell
	if min < 0 {
		min = 0
	}
	var out []Handover
	for c := 0; c < cfg.Clients; c++ {
		cell := StartCell(c, cfg.Cells)
		t := time.Duration(0)
		for step := uint64(0); ; step++ {
			// Shifted-exponential dwell via inverse CDF; u < 1 always, so
			// the log argument stays in (0, 1].
			u := mobUnit(cfg.Seed, uint64(c), step, 0)
			t += min + time.Duration(-math.Log(1-u)*float64(mean))
			if t >= cfg.Duration {
				break
			}
			// Next cell uniform over the others (never a self-handover).
			to := int(mobMix(cfg.Seed, uint64(c), step, 1) % uint64(cfg.Cells-1))
			if to >= cell {
				to++
			}
			out = append(out, Handover{At: t, Client: c, To: to})
			cell = to
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		return out[i].Client < out[j].Client
	})
	return out
}

// mobMix maps (seed, client, step, salt) to a uniform uint64 with a
// splitmix64-style finalizer (the faults package's counted-draw idiom).
func mobMix(seed int64, client, step, salt uint64) uint64 {
	x := uint64(seed)
	x ^= (client + 1) * 0x9E3779B97F4A7C15
	x ^= (step + 1) * 0xBF58476D1CE4E5B9
	x ^= (salt + 1) * 0x94D049BB133111EB
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// mobUnit maps the same key to [0, 1).
func mobUnit(seed int64, client, step, salt uint64) float64 {
	return float64(mobMix(seed, client, step, salt)>>11) / (1 << 53)
}
