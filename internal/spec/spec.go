// Package spec implements the paper's edge service definition files (§V):
// every edge service is described by a Kubernetes Deployment YAML (the only
// mandatory field is the container image), and the system automatically
// annotates it before deployment — unique worldwide name, matchLabels, the
// edge.service label, replicas=0 ("scale to zero"), an optional
// schedulerName for a configured Local Scheduler — and generates the
// Kubernetes Service definition if the developer did not include one.
//
// The same (annotated) definition drives every cluster type through the
// subset they consume (containers, ports, env, volume mounts, the target
// port and the scheduler name); the full annotated Deployment/Service
// documents are rendered only for printing (Annotated.EncodeYAML).
package spec

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"transparentedge/internal/simnet"
	"transparentedge/internal/yaml"
)

// EdgeServiceLabel is the label added to every edge deployment so edge
// services can be addressed and queried distinctly in a cluster.
const EdgeServiceLabel = "edge.service"

// Errors returned when parsing or annotating definitions.
var (
	ErrNoDeployment = errors.New("spec: no Deployment document found")
	ErrNoContainers = errors.New("spec: deployment has no containers")
	ErrNoImage      = errors.New("spec: container without image")
)

// Registration identifies a registered edge service by the unique
// combination the paper uses: domain name / IP address and port.
type Registration struct {
	Domain string      // e.g. "api.example.com"
	VIP    simnet.Addr // the public (cloud) IP clients address
	Port   int         // the public service port
}

// UniqueName derives the worldwide-unique service name the annotator
// assigns (paper §V: "we automatically set a unique worldwide name").
func (r Registration) UniqueName() string {
	d := strings.ToLower(r.Domain)
	if d == "" {
		d = string(r.VIP)
	}
	return "edge-" + nameReplacer.Replace(d) + "-" + strconv.Itoa(r.Port)
}

// nameReplacer maps the separators a domain or address may carry to the
// hyphens a Kubernetes object name allows.
var nameReplacer = strings.NewReplacer(".", "-", "/", "-", ":", "-")

// ContainerSpec is the per-container subset both cluster types consume.
type ContainerSpec struct {
	Name          string
	Image         string
	ContainerPort int // 0 when the container exposes no port
	// CPUMillis / MemoryBytes are the container's resource requests
	// (resources.requests in the definition); zero means unspecified.
	CPUMillis   int64
	MemoryBytes int64
}

// Definition is a parsed service definition file. Annotate only reads it,
// so one Definition may back any number of registrations.
type Definition struct {
	Deployment map[string]any
	Service    map[string]any // nil unless the developer supplied one
}

// Parse reads a service definition YAML (one Deployment document, plus an
// optional Service document).
func Parse(src string) (*Definition, error) {
	docs, err := yaml.DecodeAll(src)
	if err != nil {
		return nil, err
	}
	def := &Definition{}
	for _, d := range docs {
		m, ok := d.(map[string]any)
		if !ok {
			continue
		}
		switch m["kind"] {
		case "Service":
			def.Service = m
		case "Deployment", nil:
			// kind may be omitted in lean definitions; the paper's files
			// only require the image name.
			if def.Deployment == nil {
				def.Deployment = m
			}
		default:
			if def.Deployment == nil && m["kind"] == nil {
				def.Deployment = m
			}
		}
	}
	if def.Deployment == nil {
		return nil, ErrNoDeployment
	}
	return def, nil
}

// Annotated is the deployment-ready service: what the clusters consume of
// the annotated definition. The annotated documents themselves are rendered
// only when printed (EncodeYAML).
type Annotated struct {
	Reg        Registration
	UniqueName string
	Containers []ContainerSpec
	// TargetPort is the container port the generated/declared Service
	// forwards to (the port the controller probes for readiness).
	TargetPort int
	// RuntimeClass is the pod spec's runtimeClassName ("" = regular
	// containers, "wasm" = a serverless/WebAssembly runtime): the
	// placement signal for side-by-side container/serverless operation
	// (paper §VIII).
	RuntimeClass string
	// SchedulerName is the pod template's schedulerName after annotation:
	// the configured Local Scheduler, else the developer's own, else "".
	SchedulerName string
	def           *Definition // shared, read-only
}

// Options configures annotation.
type Options struct {
	// SchedulerName, when non-empty, is set on the pod template so a
	// custom Local Scheduler handles these pods (paper §IV-B/§V).
	SchedulerName string
}

// Annotate applies the automatic annotations of §V to def for the given
// registration and returns the deployment-ready service. def is only read:
// the result keeps a reference to it, and the same def may be annotated for
// any number of registrations.
func Annotate(def *Definition, reg Registration, opts Options) (*Annotated, error) {
	specMap, _ := def.Deployment["spec"].(map[string]any)
	tmpl, _ := specMap["template"].(map[string]any)
	podSpec, _ := tmpl["spec"].(map[string]any)

	containers, err := parseContainers(podSpec)
	if err != nil {
		return nil, err
	}
	runtimeClass, _ := podSpec["runtimeClassName"].(string)
	schedulerName := opts.SchedulerName
	if schedulerName == "" {
		schedulerName, _ = podSpec["schedulerName"].(string)
	}

	targetPort := 0
	for _, c := range containers {
		if c.ContainerPort > 0 {
			targetPort = c.ContainerPort
			break
		}
	}
	if targetPort == 0 {
		targetPort = reg.Port
	}
	if def.Service != nil {
		if tp := declaredTargetPort(def.Service); tp > 0 {
			targetPort = tp
		}
	}

	return &Annotated{
		Reg:           reg,
		UniqueName:    reg.UniqueName(),
		Containers:    containers,
		TargetPort:    targetPort,
		RuntimeClass:  runtimeClass,
		SchedulerName: schedulerName,
		def:           def,
	}, nil
}

// documents renders the annotated Deployment and Service: copies of the
// definition's documents carrying the unique name, the labels, replicas=0
// and the scheduler, and a generated Service if the developer supplied none.
func (a *Annotated) documents() (dep, svc map[string]any) {
	name := a.UniqueName
	dep = deepCopy(a.def.Deployment).(map[string]any)

	ensureMap(dep, "metadata")["name"] = name
	labels := ensureMap(ensureMap(dep, "metadata"), "labels")
	labels["app"] = name
	labels[EdgeServiceLabel] = name

	spec := ensureMap(dep, "spec")
	// "Scale to zero" by default: the controller scales up on demand.
	spec["replicas"] = int64(0)
	selector := ensureMap(spec, "selector")
	match := ensureMap(selector, "matchLabels")
	match["app"] = name
	match[EdgeServiceLabel] = name

	tmpl := ensureMap(spec, "template")
	tmplLabels := ensureMap(ensureMap(tmpl, "metadata"), "labels")
	tmplLabels["app"] = name
	tmplLabels[EdgeServiceLabel] = name
	podSpec := ensureMap(tmpl, "spec")
	if a.SchedulerName != "" {
		podSpec["schedulerName"] = a.SchedulerName
	}

	if a.def.Service == nil {
		svc = map[string]any{
			"apiVersion": "v1",
			"kind":       "Service",
			"metadata": map[string]any{
				"name":   name,
				"labels": map[string]any{EdgeServiceLabel: name},
			},
			"spec": map[string]any{
				"selector": map[string]any{"app": name},
				"ports": []any{map[string]any{
					"protocol":   "TCP",
					"port":       int64(a.Reg.Port),
					"targetPort": int64(a.TargetPort),
				}},
			},
		}
	} else {
		svc = deepCopy(a.def.Service).(map[string]any)
		ensureMap(svc, "metadata")["name"] = name
		ensureMap(ensureMap(svc, "metadata"), "labels")[EdgeServiceLabel] = name
		ensureMap(ensureMap(svc, "spec"), "selector")["app"] = name
	}
	return dep, svc
}

func declaredTargetPort(svc map[string]any) int {
	spec, _ := svc["spec"].(map[string]any)
	ports, _ := spec["ports"].([]any)
	for _, pv := range ports {
		pm, ok := pv.(map[string]any)
		if !ok {
			continue
		}
		if tp, ok := pm["targetPort"].(int64); ok {
			return int(tp)
		}
		if pp, ok := pm["port"].(int64); ok {
			return int(pp)
		}
	}
	return 0
}

func parseContainers(podSpec map[string]any) ([]ContainerSpec, error) {
	raw, _ := podSpec["containers"].([]any)
	if len(raw) == 0 {
		return nil, ErrNoContainers
	}
	var out []ContainerSpec
	for i, cv := range raw {
		cm, ok := cv.(map[string]any)
		if !ok {
			return nil, fmt.Errorf("spec: container %d is not a mapping", i)
		}
		image, _ := cm["image"].(string)
		if image == "" {
			return nil, fmt.Errorf("%w (container %d)", ErrNoImage, i)
		}
		cs := ContainerSpec{Image: image}
		if n, ok := cm["name"].(string); ok && n != "" {
			cs.Name = n
		} else {
			cs.Name = fmt.Sprintf("c%d", i)
		}
		if ports, ok := cm["ports"].([]any); ok && len(ports) > 0 {
			if pm, ok := ports[0].(map[string]any); ok {
				if cp, ok := pm["containerPort"].(int64); ok {
					cs.ContainerPort = int(cp)
				}
			}
		}
		if res, ok := cm["resources"].(map[string]any); ok {
			if reqs, ok := res["requests"].(map[string]any); ok {
				if cpu, err := ParseCPU(reqs["cpu"]); err != nil {
					return nil, fmt.Errorf("spec: container %d: %v", i, err)
				} else {
					cs.CPUMillis = cpu
				}
				if mem, err := ParseMemory(reqs["memory"]); err != nil {
					return nil, fmt.Errorf("spec: container %d: %v", i, err)
				} else {
					cs.MemoryBytes = mem
				}
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

// EncodeYAML renders the annotated deployment and service as a two-document
// YAML stream (what would be applied to a real cluster).
func (a *Annotated) EncodeYAML() string {
	dep, svc := a.documents()
	return yaml.EncodeAll([]any{dep, svc})
}

// ParseCPU parses a Kubernetes CPU quantity ("500m", "2", 0.5) into
// millicores. nil yields 0; a negative, non-finite or out-of-range quantity
// is an error.
func ParseCPU(v any) (int64, error) {
	switch t := v.(type) {
	case nil:
		return 0, nil
	case int64:
		return quantity("cpu", v, t, 1000)
	case float64:
		return quantity("cpu", v, t, 1000)
	case string:
		s := strings.TrimSpace(t)
		if s == "" {
			return 0, nil
		}
		if strings.HasSuffix(s, "m") {
			n, err := strconv.ParseInt(strings.TrimSuffix(s, "m"), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("invalid cpu quantity %q", t)
			}
			return quantity("cpu", v, n, 1)
		}
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return 0, fmt.Errorf("invalid cpu quantity %q", t)
		}
		return quantity("cpu", v, f, 1000)
	}
	return 0, fmt.Errorf("invalid cpu quantity %v", v)
}

// ParseMemory parses a Kubernetes memory quantity ("128Mi", "1Gi", "64M",
// plain bytes) into bytes. nil yields 0; a negative, non-finite or
// out-of-range quantity is an error.
func ParseMemory(v any) (int64, error) {
	switch t := v.(type) {
	case nil:
		return 0, nil
	case int64:
		return quantity("memory", v, t, 1)
	case float64:
		return quantity("memory", v, t, 1)
	case string:
		s := strings.TrimSpace(t)
		if s == "" {
			return 0, nil
		}
		units := []struct {
			suffix string
			mult   int64
		}{
			{"Gi", 1 << 30}, {"Mi", 1 << 20}, {"Ki", 1 << 10},
			{"G", 1_000_000_000}, {"M", 1_000_000}, {"K", 1_000},
		}
		for _, u := range units {
			if strings.HasSuffix(s, u.suffix) {
				n, err := strconv.ParseInt(strings.TrimSuffix(s, u.suffix), 10, 64)
				if err != nil {
					return 0, fmt.Errorf("invalid memory quantity %q", t)
				}
				return quantity("memory", v, n, u.mult)
			}
		}
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("invalid memory quantity %q", t)
		}
		return quantity("memory", v, n, 1)
	}
	return 0, fmt.Errorf("invalid memory quantity %v", v)
}

// quantity returns n units as an integer quantity, or an error naming the
// resource and the original value v if n is not finite, is negative, or
// n × unit does not fit in an int64. The checks come before any integer
// multiplication or conversion, so none of them wraps.
func quantity[N int64 | float64](resource string, v any, n N, unit int64) (int64, error) {
	f := float64(n)
	switch {
	case math.IsNaN(f) || math.IsInf(f, 0):
		return 0, fmt.Errorf("non-finite %s quantity %v", resource, v)
	case n < 0:
		return 0, fmt.Errorf("negative %s quantity %v", resource, v)
	}
	if i, isInt := any(n).(int64); isInt {
		if i > math.MaxInt64/unit {
			return 0, fmt.Errorf("%s quantity %v out of range", resource, v)
		}
		return i * unit, nil
	}
	x := f * float64(unit)
	if x >= 1<<63 {
		return 0, fmt.Errorf("%s quantity %v out of range", resource, v)
	}
	return int64(x), nil
}

func ensureMap(m map[string]any, key string) map[string]any {
	if v, ok := m[key].(map[string]any); ok {
		return v
	}
	v := map[string]any{}
	m[key] = v
	return v
}

func deepCopy(v any) any {
	switch t := v.(type) {
	case map[string]any:
		out := make(map[string]any, len(t))
		for k, vv := range t {
			out[k] = deepCopy(vv)
		}
		return out
	case []any:
		out := make([]any, len(t))
		for i, vv := range t {
			out[i] = deepCopy(vv)
		}
		return out
	default:
		return v
	}
}
