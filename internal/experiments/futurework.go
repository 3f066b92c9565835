package experiments

import (
	"time"

	"transparentedge/internal/catalog"
	"transparentedge/internal/metrics"
	"transparentedge/internal/testbed"
)

// futureWorkServerless runs the §VIII future-work evaluation: the same tiny
// web service deployed on demand through the transparent-access path as a
// container (Docker, Kubernetes) and as a WASM module (serverless), with
// artifacts cached and services created — the pure cold-start comparison
// the paper's future work asks for ("evaluate how well the latter would
// perform in a transparent access approach"). The table holds the first and
// warm request latency per platform.
func futureWorkServerless(seed int64) (*metrics.Table, error) {
	res := metrics.NewTable(
		"§VIII — cold start via transparent access (web service, artifacts cached)",
		"first request", "warm request")
	type platform struct {
		name string
		kind string
		key  string
	}
	platforms := []platform{
		{"serverless (WASM)", testbed.KindServerless, catalog.AsmWasm},
		{"docker", testbed.KindDocker, catalog.Asm},
		{"kubernetes", testbed.KindKubernetes, catalog.Asm},
	}
	for _, pf := range platforms {
		var first, warm time.Duration
		if _, err := script(testbed.Options{
			Seed:             seed,
			EnableDocker:     pf.kind == testbed.KindDocker,
			EnableKube:       pf.kind == testbed.KindKubernetes,
			EnableServerless: pf.kind == testbed.KindServerless,
		}, pf.key, 30*time.Minute, func(s *scenario) error {
			if err := s.prepare(true); err != nil {
				return err
			}
			var err error
			if first, err = s.request(0); err != nil {
				return err
			}
			warm, err = s.request(0)
			return err
		}); err != nil {
			return nil, err
		}
		res.AddRow(pf.name, first, warm)
	}
	return res, nil
}
