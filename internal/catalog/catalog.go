// Package catalog defines the four edge services of the paper's Table I —
// their images (size and layer structure), runtime behaviors (app init
// time, request service time), request shapes (GET/POST, payload sizes),
// and service definition YAML files — plus the calibration rationale for
// every constant.
//
// Calibration: absolute values are set so that the simulated testbed
// reproduces the paper's reported medians in shape and rough magnitude:
//
//   - container start dominated by runtime, not image size -> Asm ≈ Nginx
//     start times (fig. 11);
//   - Docker scale-up < 1 s, Kubernetes ≈ 3 s (fig. 11);
//   - ResNet's wait-until-ready alone exceeds a fourth of its total time
//     (figs. 11/14), driven by TensorFlow Serving loading the ResNet50
//     model;
//   - create adds ≈ 100 ms except for ResNet where it vanishes in the
//     noise (fig. 12);
//   - pull times ordered Asm ≪ Nginx < Nginx+Py < ResNet, and a private
//     in-network registry saves ≈ 1.5–2 s (fig. 13);
//   - warm requests ≈ 1 ms except ResNet (fig. 16).
package catalog

import (
	"fmt"
	"sync"
	"time"

	"transparentedge/internal/cluster"
	"transparentedge/internal/registry"
	"transparentedge/internal/simnet"
)

// Service keys of Table I.
const (
	Asm     = "Asm"
	Nginx   = "Nginx"
	ResNet  = "ResNet"
	NginxPy = "Nginx+Py"
)

// Image references used by the services.
const (
	ImgAsm    = "josefhammer/web-asm:amd64"
	ImgNginx  = "nginx:1.23.2"
	ImgResNet = "gcr.io/tensorflow-serving/resnet"
	ImgPy     = "josefhammer/env-writer-py"
)

// AsmWasm is the serverless (WebAssembly) counterpart of the Asm web
// server, used by the §VIII future-work evaluation: the same tiny web
// service packaged as a WASM module instead of a container image.
const (
	AsmWasm    = "Asm-Wasm"
	ImgAsmWasm = "josefhammer/web-asm:wasm"
)

// Service is one Table I row.
type Service struct {
	Key        string
	Images     []string
	Containers int
	HTTPMethod string
	// Request is the client request shape (83 KiB cat picture for ResNet).
	RequestSize simnet.Bytes
	// YAML is the service definition file (§V) for this service.
	YAML string
}

// Keys returns the four service keys in Table I order.
func Keys() []string { return []string{Asm, Nginx, ResNet, NginxPy} }

// byKey caches the catalog as a map; built once (the catalog is static) and
// guarded by a sync.Once so parallel sweep workers can call Get concurrently.
var (
	byKeyOnce sync.Once
	byKey     map[string]Service
)

// Get returns the catalog entry for a key (including the serverless
// future-work entries).
func Get(key string) (Service, error) {
	byKeyOnce.Do(func() {
		byKey = make(map[string]Service)
		for _, s := range Services() {
			byKey[s.Key] = s
		}
		for _, s := range WasmServices() {
			byKey[s.Key] = s
		}
	})
	s, ok := byKey[key]
	if !ok {
		return Service{}, fmt.Errorf("catalog: unknown service %q", key)
	}
	return s, nil
}

// WasmServices returns the serverless-module service entries (§VIII future
// work); they are kept out of Services so Table I stays the paper's four
// rows.
func WasmServices() []Service {
	return []Service{
		// Assembler web server compiled to a WebAssembly module (serverless).
		{
			Key:         AsmWasm,
			Images:      []string{ImgAsmWasm},
			Containers:  1,
			HTTPMethod:  "GET",
			RequestSize: 256,
			YAML: `
spec:
  template:
    spec:
      runtimeClassName: wasm
      containers:
      - name: asmttpd-wasm
        image: ` + ImgAsmWasm + `
        ports:
        - containerPort: 80
`,
		},
	}
}

// Services returns all Table I entries.
func Services() []Service {
	return []Service{
		// Assembler web server (asmttpd): the smallest and fastest web service possible.
		{
			Key:         Asm,
			Images:      []string{ImgAsm},
			Containers:  1,
			HTTPMethod:  "GET",
			RequestSize: 256,
			YAML: `
spec:
  template:
    spec:
      containers:
      - name: asmttpd
        image: ` + ImgAsm + `
        ports:
        - containerPort: 80
`,
		},
		// Nginx web server: the most popular container image.
		{
			Key:         Nginx,
			Images:      []string{ImgNginx},
			Containers:  1,
			HTTPMethod:  "GET",
			RequestSize: 256,
			YAML: `
spec:
  template:
    spec:
      containers:
      - name: nginx
        image: ` + ImgNginx + `
        ports:
        - containerPort: 80
`,
		},
		// TensorFlow Serving with a pre-trained ResNet50 model (image classification).
		{
			Key:         ResNet,
			Images:      []string{ImgResNet},
			Containers:  1,
			HTTPMethod:  "POST",
			RequestSize: 83 * simnet.KiB, // the cat picture
			YAML: `
spec:
  template:
    spec:
      containers:
      - name: tf-serving
        image: ` + ImgResNet + `
        ports:
        - containerPort: 8501
`,
		},
		// Nginx + Python env-writer app sharing a host folder (multi-container service).
		{
			Key:         NginxPy,
			Images:      []string{ImgNginx, ImgPy},
			Containers:  2,
			HTTPMethod:  "GET",
			RequestSize: 256,
			YAML: `
spec:
  template:
    spec:
      containers:
      - name: nginx
        image: ` + ImgNginx + `
        ports:
        - containerPort: 80
        volumeMounts:
        - name: shared
          mountPath: /usr/share/nginx/html
      - name: writer
        image: ` + ImgPy + `
        env:
        - name: INTERVAL
          value: 1
        volumeMounts:
        - name: shared
          mountPath: /data
      volumes:
      - name: shared
        hostPath:
          path: /srv/edge/shared
`,
		},
	}
}

// Images returns the registry images with Table I's sizes and layer counts.
// Nginx+Py shares the nginx image layers with the plain Nginx service, so
// Table I's "181 MiB / 7 layers" decomposes into nginx (135 MiB / 6) plus
// the 46 MiB single-layer Python app.
func Images() []registry.Image {
	return []registry.Image{
		{
			Ref: ImgAsm,
			// 6.18 KiB, one layer: the paper's headline extreme case.
			Layers: []registry.Layer{{Digest: "sha256:asm-0", Size: 6328}},
		},
		{
			Ref: ImgNginx,
			// 135 MiB over 6 layers (debian base + nginx + config layers).
			Layers: []registry.Layer{
				{Digest: "sha256:nginx-0", Size: 74 * simnet.MiB},
				{Digest: "sha256:nginx-1", Size: 25 * simnet.MiB},
				{Digest: "sha256:nginx-2", Size: 19 * simnet.MiB},
				{Digest: "sha256:nginx-3", Size: 10 * simnet.MiB},
				{Digest: "sha256:nginx-4", Size: 4 * simnet.MiB},
				{Digest: "sha256:nginx-5", Size: 3 * simnet.MiB},
			},
		},
		{
			Ref: ImgResNet,
			// 308 MiB over 9 layers (ubuntu base + TF Serving + model).
			Layers: []registry.Layer{
				{Digest: "sha256:resnet-0", Size: 70 * simnet.MiB},
				{Digest: "sha256:resnet-1", Size: 65 * simnet.MiB},
				{Digest: "sha256:resnet-2", Size: 60 * simnet.MiB},
				{Digest: "sha256:resnet-3", Size: 45 * simnet.MiB},
				{Digest: "sha256:resnet-4", Size: 30 * simnet.MiB},
				{Digest: "sha256:resnet-5", Size: 20 * simnet.MiB},
				{Digest: "sha256:resnet-6", Size: 10 * simnet.MiB},
				{Digest: "sha256:resnet-7", Size: 5 * simnet.MiB},
				{Digest: "sha256:resnet-8", Size: 3 * simnet.MiB},
			},
		},
		{
			Ref: ImgPy,
			// 46 MiB single layer (python:slim-based app).
			Layers: []registry.Layer{{Digest: "sha256:py-0", Size: 46 * simnet.MiB}},
		},
		{
			Ref: ImgAsmWasm,
			// A WASM module: a single tiny artifact, no layers to verify.
			Layers: []registry.Layer{{Digest: "sha256:asm-wasm-0", Size: 58 * simnet.KiB}},
		},
	}
}

// Behaviors returns the runtime behavior of each image.
//
//   - web-asm: negligible init (the paper uses it to measure the pure
//     container-start overhead), trivial serving.
//   - nginx: ~60 ms init (master/worker spawn, config parse).
//   - TF Serving/ResNet: 4.4 s model load before the port opens; ~140 ms
//     per classification once warm (fig. 16's outlier).
//   - env-writer-py: ~300 ms interpreter + config read; exposes no port.
func Behaviors() cluster.StaticBehaviors {
	return cluster.StaticBehaviors{
		ImgAsm:    {InitDelay: time.Millisecond, ServiceTime: 100 * time.Microsecond, RespSize: 256},
		ImgNginx:  {InitDelay: 60 * time.Millisecond, ServiceTime: 250 * time.Microsecond, RespSize: simnet.KiB},
		ImgResNet: {InitDelay: 4400 * time.Millisecond, ServiceTime: 140 * time.Millisecond, RespSize: 2 * simnet.KiB},
		ImgPy:     {InitDelay: 300 * time.Millisecond},
		// WASM module init is near-instant once instantiated; per-request
		// time is slightly above native (interpreter/JIT overhead).
		ImgAsmWasm: {InitDelay: 500 * time.Microsecond, ServiceTime: 150 * time.Microsecond, RespSize: 256},
	}
}

// requestByKey caches the per-service client request shapes. The catalog is
// static, the request objects are never mutated by the transport (wire sizes
// are clamped on send, not in place), and the map is read-only after package
// init — so sharing one request per key across every in-flight request is
// safe, including across shard kernels, and keeps the replay hot path from
// allocating a fresh request per call.
var requestByKey = func() map[string]*simnet.HTTPRequest {
	m := make(map[string]*simnet.HTTPRequest)
	for _, list := range [][]Service{Services(), WasmServices()} {
		for _, s := range list {
			m[s.Key] = &simnet.HTTPRequest{Method: s.HTTPMethod, Path: "/", Size: s.RequestSize}
		}
	}
	return m
}()

// Request returns the client request for a service (timecurl's GET, or the
// POST with the 83 KiB payload for ResNet). The returned request is shared
// and must not be mutated.
func Request(key string) *simnet.HTTPRequest {
	if r, ok := requestByKey[key]; ok {
		return r
	}
	return &simnet.HTTPRequest{Method: "GET", Path: "/", Size: 256}
}
