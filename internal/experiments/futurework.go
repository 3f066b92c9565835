package experiments

import (
	"time"

	"transparentedge/internal/catalog"
	"transparentedge/internal/metrics"
	"transparentedge/internal/sim"
	"transparentedge/internal/testbed"
)

// FutureWorkServerless runs the §VIII future-work evaluation: the same tiny
// web service deployed on demand through the transparent-access path as a
// container (Docker, Kubernetes) and as a WASM module (serverless), with
// artifacts cached and services created — the pure cold-start comparison
// the paper's future work asks for ("evaluate how well the latter would
// perform in a transparent access approach"). The table holds the first and
// warm request latency per platform.
func FutureWorkServerless(seed int64) (*metrics.Table, error) {
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
		tb := testbed.New(testbed.Options{
			Seed:             seed,
			EnableDocker:     pf.kind == testbed.KindDocker,
			EnableKube:       pf.kind == testbed.KindKubernetes,
			EnableServerless: pf.kind == testbed.KindServerless,
		})
		a, reg, err := tb.RegisterCatalogService(pf.key)
		if err != nil {
			return nil, err
		}
		cl := tb.ClusterByKind(pf.kind)
		var first, warm time.Duration
		rerr := drive(tb.K, 30*time.Minute, func(p *sim.Proc) error {
			if err := cl.Pull(p, a); err != nil {
				return err
			}
			if err := cl.Create(p, a); err != nil {
				return err
			}
			hr, err := tb.Request(p, 0, reg, pf.key, 0)
			if err != nil {
				return err
			}
			first = hr.Total
			hr, err = tb.Request(p, 0, reg, pf.key, 0)
			if err != nil {
				return err
			}
			warm = hr.Total
			return nil
		})
		if rerr != nil {
			return nil, rerr
		}
		res.AddRow(pf.name, first, warm)
	}
	return res, nil
}
