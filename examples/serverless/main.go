// Serverless at the edge (paper §VIII future work): "enabling the
// side-by-side operation of containers and serverless applications and
// evaluate how well the latter would perform in a transparent access
// approach."
//
// The same tiny web service is registered twice: once as a container image
// served by the Docker cluster, once as a WebAssembly module served by the
// serverless platform — both behind the same transparent-access controller.
// The cold-start difference is dramatic: the WASM module instantiates in
// milliseconds, so even the very first request is answered almost as fast
// as a warm one.
//
// Run with: go run ./examples/serverless
package main

import (
	"fmt"
	"time"

	edge "transparentedge"
	"transparentedge/internal/catalog"
)

func main() {
	tb := edge.NewTestbed(edge.TestbedOptions{
		Seed:             1,
		EnableDocker:     true,
		EnableServerless: true,
		Events:           func(e edge.ObsEvent) { fmt.Printf("controller: %s\n", e) },
	})
	// The container variant (deployed on Docker) and the WASM variant
	// (deployed on the serverless platform) of the same web service.
	ctr, ctrReg, err := tb.RegisterCatalogService(edge.Asm)
	if err != nil {
		panic(err)
	}
	fn, fnReg, err := tb.RegisterCatalogService(catalog.AsmWasm)
	if err != nil {
		panic(err)
	}

	tb.K.Go("client", func(p *edge.Proc) {
		// Cache the artifacts and create the services so the comparison
		// isolates cold starts (pull times would otherwise dominate).
		if err := tb.Docker.Pull(p, ctr); err != nil {
			panic(err)
		}
		if err := tb.Docker.Create(p, ctr); err != nil {
			panic(err)
		}
		if err := tb.Serverless.Pull(p, fn); err != nil {
			panic(err)
		}
		if err := tb.Serverless.Create(p, fn); err != nil {
			panic(err)
		}

		res, err := tb.Request(p, 0, fnReg, catalog.AsmWasm, 0)
		if err != nil {
			panic(err)
		}
		fmt.Printf("\nserverless (WASM) cold start: %v\n", res.Total)

		res, err = tb.Request(p, 1, ctrReg, edge.Asm, 0)
		if err != nil {
			panic(err)
		}
		fmt.Printf("container (Docker) cold start: %v\n", res.Total)

		res, _ = tb.Request(p, 0, fnReg, catalog.AsmWasm, 0)
		fmt.Printf("serverless warm request:       %v\n", res.Total)
		res, _ = tb.Request(p, 1, ctrReg, edge.Asm, 0)
		fmt.Printf("container warm request:        %v\n", res.Total)
	})
	tb.K.RunUntil(time.Minute)
	fmt.Printf("\ncold starts on the platform: %d\n", tb.Serverless.ColdStarts)
}
