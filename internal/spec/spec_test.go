package spec

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"transparentedge/internal/yaml"
)

const nginxYAML = `
apiVersion: apps/v1
kind: Deployment
spec:
  template:
    spec:
      containers:
      - name: nginx
        image: nginx:1.23.2
        ports:
        - containerPort: 80
`

const leanYAML = `
spec:
  template:
    spec:
      containers:
      - image: josefhammer/web-asm:amd64
`

const multiYAML = `
apiVersion: apps/v1
kind: Deployment
spec:
  template:
    spec:
      containers:
      - name: nginx
        image: nginx:1.23.2
        ports:
        - containerPort: 80
        volumeMounts:
        - name: shared
          mountPath: /usr/share/nginx/html
      - name: writer
        image: josefhammer/env-writer-py
        ports:
        - containerPort: 8080
        env:
        - name: INTERVAL
          value: 1
        volumeMounts:
        - name: shared
          mountPath: /data
      volumes:
      - name: shared
        hostPath:
          path: /srv/shared
---
apiVersion: v1
kind: Service
spec:
  ports:
  - port: 80
    targetPort: 8080
`

var reg = Registration{Domain: "web.example.com", VIP: "203.0.113.10", Port: 80}

func TestUniqueName(t *testing.T) {
	if got := reg.UniqueName(); got != "edge-web-example-com-80" {
		t.Fatalf("UniqueName = %q", got)
	}
	ipOnly := Registration{VIP: "203.0.113.10", Port: 443}
	if got := ipOnly.UniqueName(); got != "edge-203-0-113-10-443" {
		t.Fatalf("UniqueName = %q", got)
	}
}

func TestParseRequiresDeployment(t *testing.T) {
	_, err := Parse("kind: Service\n")
	if !errors.Is(err, ErrNoDeployment) {
		t.Fatalf("err = %v", err)
	}
}

func TestAnnotateSetsNameLabelsReplicas(t *testing.T) {
	def, err := Parse(nginxYAML)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Annotate(def, reg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.UniqueName != "edge-web-example-com-80" {
		t.Errorf("UniqueName = %q", a.UniqueName)
	}
	dep, _ := a.documents()
	meta := dep["metadata"].(map[string]any)
	if meta["name"] != a.UniqueName {
		t.Errorf("metadata.name = %v", meta["name"])
	}
	labels := meta["labels"].(map[string]any)
	if labels[EdgeServiceLabel] != a.UniqueName || labels["app"] != a.UniqueName {
		t.Errorf("labels = %#v", labels)
	}
	spec := dep["spec"].(map[string]any)
	if spec["replicas"] != int64(0) {
		t.Errorf("replicas = %v, want 0 (scale to zero)", spec["replicas"])
	}
	match := spec["selector"].(map[string]any)["matchLabels"].(map[string]any)
	if match["app"] != a.UniqueName {
		t.Errorf("matchLabels = %#v", match)
	}
	tmplLabels := spec["template"].(map[string]any)["metadata"].(map[string]any)["labels"].(map[string]any)
	if tmplLabels[EdgeServiceLabel] != a.UniqueName {
		t.Errorf("template labels = %#v", tmplLabels)
	}
}

func TestAnnotateDoesNotMutateInput(t *testing.T) {
	def, _ := Parse(nginxYAML)
	before := yaml.Encode(def.Deployment)
	if _, err := Annotate(def, reg, Options{SchedulerName: "custom"}); err != nil {
		t.Fatal(err)
	}
	if yaml.Encode(def.Deployment) != before {
		t.Fatal("Annotate mutated the parsed definition")
	}
}

func TestAnnotateSchedulerName(t *testing.T) {
	def, _ := Parse(nginxYAML)
	a, _ := Annotate(def, reg, Options{SchedulerName: "matching-sched"})
	if a.SchedulerName != "matching-sched" {
		t.Fatalf("SchedulerName = %q", a.SchedulerName)
	}
	dep, _ := a.documents()
	podSpec := dep["spec"].(map[string]any)["template"].(map[string]any)["spec"].(map[string]any)
	if podSpec["schedulerName"] != "matching-sched" {
		t.Fatalf("schedulerName = %v", podSpec["schedulerName"])
	}
	b, _ := Annotate(def, reg, Options{})
	if b.SchedulerName != "" {
		t.Fatalf("SchedulerName = %q without a configured Local Scheduler", b.SchedulerName)
	}
	depB, _ := b.documents()
	podSpecB := depB["spec"].(map[string]any)["template"].(map[string]any)["spec"].(map[string]any)
	if _, present := podSpecB["schedulerName"]; present {
		t.Fatal("schedulerName set without a configured Local Scheduler")
	}
	// A developer's own schedulerName holds unless a Local Scheduler is
	// configured.
	own, _ := Parse(strings.Replace(nginxYAML, "      containers:", "      schedulerName: own-sched\n      containers:", 1))
	if c, _ := Annotate(own, reg, Options{}); c.SchedulerName != "own-sched" {
		t.Fatalf("SchedulerName = %q, want the developer's own-sched", c.SchedulerName)
	}
	if c, _ := Annotate(own, reg, Options{SchedulerName: "matching-sched"}); c.SchedulerName != "matching-sched" {
		t.Fatalf("SchedulerName = %q, want the configured matching-sched", c.SchedulerName)
	}
}

// TestAnnotateNeverWritesDefinition: a Definition is parsed once per YAML
// source and shared by every registration made from it, so neither Annotate
// nor rendering may write into it, and each rendering carries only its own
// registration's name and scheduler.
func TestAnnotateNeverWritesDefinition(t *testing.T) {
	other := Registration{Domain: "other.example.com", VIP: "203.0.113.11", Port: 8080}
	// nginxYAML gets a generated Service, multiYAML keeps the developer's.
	for _, src := range []string{nginxYAML, multiYAML} {
		def, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		digest := func() string { return fmt.Sprintf("%#v", def) }
		before := digest()
		a, err := Annotate(def, reg, Options{SchedulerName: "matching-sched"})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Annotate(def, other, Options{})
		if err != nil {
			t.Fatal(err)
		}
		outA, outB := a.EncodeYAML(), b.EncodeYAML()
		if digest() != before {
			t.Fatalf("annotating and rendering changed the shared definition:\n%s\nwant\n%s", digest(), before)
		}
		for _, c := range []struct {
			out, own, foreign string
			sched             bool
		}{
			{outA, a.UniqueName, b.UniqueName, true},
			{outB, b.UniqueName, a.UniqueName, false},
		} {
			if !strings.Contains(c.out, c.own) {
				t.Errorf("rendering lacks its own name %s:\n%s", c.own, c.out)
			}
			if strings.Contains(c.out, c.foreign) {
				t.Errorf("rendering carries the other registration's name %s:\n%s", c.foreign, c.out)
			}
			if got := strings.Contains(c.out, "matching-sched"); got != c.sched {
				t.Errorf("rendering names the scheduler: %v, want %v:\n%s", got, c.sched, c.out)
			}
		}
	}
}

func TestAnnotateGeneratesService(t *testing.T) {
	def, _ := Parse(nginxYAML)
	a, _ := Annotate(def, reg, Options{})
	_, svc := a.documents()
	if svc == nil {
		t.Fatal("no Service generated")
	}
	sspec := svc["spec"].(map[string]any)
	ports := sspec["ports"].([]any)[0].(map[string]any)
	if ports["protocol"] != "TCP" || ports["port"] != int64(80) || ports["targetPort"] != int64(80) {
		t.Fatalf("ports = %#v", ports)
	}
	if sspec["selector"].(map[string]any)["app"] != a.UniqueName {
		t.Fatalf("selector = %#v", sspec["selector"])
	}
	if a.TargetPort != 80 {
		t.Fatalf("TargetPort = %d", a.TargetPort)
	}
}

func TestAnnotateKeepsDeveloperService(t *testing.T) {
	def, err := Parse(multiYAML)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Annotate(def, reg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, svc := a.documents()
	sspec := svc["spec"].(map[string]any)
	ports := sspec["ports"].([]any)[0].(map[string]any)
	if ports["targetPort"] != int64(8080) {
		t.Fatalf("developer targetPort overridden: %#v", ports)
	}
	if a.TargetPort != 8080 {
		t.Fatalf("TargetPort = %d, want developer's 8080", a.TargetPort)
	}
}

func TestParseContainersMultiple(t *testing.T) {
	def, _ := Parse(multiYAML)
	a, err := Annotate(def, reg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Containers) != 2 {
		t.Fatalf("containers = %d, want 2", len(a.Containers))
	}
	nginx, writer := a.Containers[0], a.Containers[1]
	if nginx.Name != "nginx" || nginx.ContainerPort != 80 {
		t.Errorf("nginx = %+v", nginx)
	}
	if writer.Image != "josefhammer/env-writer-py" || writer.ContainerPort != 8080 {
		t.Errorf("writer = %+v", writer)
	}
}

// TestParseContainerEnv: an env entry of any value shape is accepted and
// reaches the annotated Deployment as written.
func TestParseContainerEnv(t *testing.T) {
	for _, c := range []struct {
		name, entry string
		want        string
	}{
		{"integer", "{name: A, value: 1}", "1"},
		{"string", "{name: A, value: on}", "on"},
		{"absent", "{name: A}", ""},
		{"null", "{name: A, value: null}", ""},
	} {
		src := "spec:\n  template:\n    spec:\n      containers:\n      - image: x:1\n        env: [" + c.entry + "]\n"
		def, err := Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		a, err := Annotate(def, reg, Options{})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		dep, _ := a.documents()
		ctr := dep["spec"].(map[string]any)["template"].(map[string]any)["spec"].(map[string]any)["containers"].([]any)[0].(map[string]any)
		env := ctr["env"].([]any)[0].(map[string]any)
		val := ""
		if v := env["value"]; v != nil {
			val = fmt.Sprint(v)
		}
		if env["name"] != "A" || val != c.want {
			t.Errorf("%s: annotated env entry %v, want A = %q", c.name, env, c.want)
		}
	}
}

func TestLeanDefinitionOnlyImage(t *testing.T) {
	// The paper: "The only mandatory data is the name of the image."
	def, err := Parse(leanYAML)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Annotate(def, Registration{Domain: "asm.example.com", VIP: "203.0.113.11", Port: 80}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Containers) != 1 || a.Containers[0].Image != "josefhammer/web-asm:amd64" {
		t.Fatalf("containers = %#v", a.Containers)
	}
	if a.Containers[0].Name != "c0" {
		t.Errorf("default container name = %q", a.Containers[0].Name)
	}
	// No containerPort declared: Service targets the registered port.
	if a.TargetPort != 80 {
		t.Errorf("TargetPort = %d", a.TargetPort)
	}
}

func TestAnnotateErrors(t *testing.T) {
	def := &Definition{Deployment: map[string]any{"spec": map[string]any{
		"template": map[string]any{"spec": map[string]any{}},
	}}}
	if _, err := Annotate(def, reg, Options{}); !errors.Is(err, ErrNoContainers) {
		t.Fatalf("err = %v, want ErrNoContainers", err)
	}
	def2, _ := Parse("spec:\n  template:\n    spec:\n      containers:\n      - name: x\n")
	if _, err := Annotate(def2, reg, Options{}); !errors.Is(err, ErrNoImage) {
		t.Fatalf("err = %v, want ErrNoImage", err)
	}
}

func TestEncodeYAMLRoundTrips(t *testing.T) {
	def, _ := Parse(nginxYAML)
	a, _ := Annotate(def, reg, Options{})
	out := a.EncodeYAML()
	docs, err := yaml.DecodeAll(out)
	if err != nil {
		t.Fatalf("re-decode: %v\n%s", err, out)
	}
	if len(docs) != 2 {
		t.Fatalf("docs = %d, want 2", len(docs))
	}
	if !strings.Contains(out, "edge.service") {
		t.Error("encoded YAML missing edge.service label")
	}
}

// quantityCase is one parser input: the quantity it yields, or a fragment of
// the error it must give ("" for none). A rejected quantity yields 0.
type quantityCase struct {
	in   any
	want int64
	err  string
}

func checkQuantities(t *testing.T, name string, parse func(any) (int64, error), cases []quantityCase) {
	t.Helper()
	for _, c := range cases {
		got, err := parse(c.in)
		ok := got == c.want
		if c.err == "" {
			ok = ok && err == nil
		} else {
			ok = ok && err != nil && strings.Contains(err.Error(), c.err) && strings.Contains(err.Error(), fmt.Sprint(c.in))
		}
		if !ok {
			t.Errorf("%s(%T %v) = %d, %v; want %d, error containing %q and the value", name, c.in, c.in, got, err, c.want, c.err)
		}
	}
}

func TestParseCPU(t *testing.T) {
	checkQuantities(t, "ParseCPU", ParseCPU, []quantityCase{
		{nil, 0, ""},
		{"", 0, ""},
		{[]any{}, 0, "invalid"},
		// int64: whole cores.
		{int64(3), 3000, ""},
		{int64(math.MaxInt64 / 1000), math.MaxInt64 / 1000 * 1000, ""},
		{int64(-1), 0, "negative"},
		{int64(10000000000000000), 0, "out of range"},
		{int64(math.MaxInt64), 0, "out of range"},
		// float64: fractional cores.
		{0.5, 500, ""},
		{-0.5, 0, "negative"},
		{math.NaN(), 0, "non-finite"},
		{math.Inf(1), 0, "non-finite"},
		{math.Inf(-1), 0, "non-finite"},
		{1e300, 0, "out of range"},
		{9.3e15, 0, "out of range"},
		// plain string: cores.
		{"2", 2000, ""},
		{"abc", 0, "invalid"},
		{"-2", 0, "negative"},
		{"NaN", 0, "non-finite"},
		{"inf", 0, "non-finite"},
		{"-Inf", 0, "non-finite"},
		{"1e300", 0, "out of range"},
		{"10000000000000000", 0, "out of range"},
		// suffixed string: millicores.
		{"500m", 500, ""},
		{"9223372036854775807m", math.MaxInt64, ""},
		{"-500m", 0, "negative"},
		{"NaNm", 0, "invalid"},
		{"9223372036854775808m", 0, "invalid"},
	})
}

func TestParseMemory(t *testing.T) {
	checkQuantities(t, "ParseMemory", ParseMemory, []quantityCase{
		{nil, 0, ""},
		{"", 0, ""},
		{[]any{}, 0, "invalid"},
		// int64: bytes.
		{int64(77), 77, ""},
		{int64(math.MaxInt64), math.MaxInt64, ""},
		{int64(-77), 0, "negative"},
		// float64: bytes.
		{1024.0, 1024, ""},
		{-1.0, 0, "negative"},
		{math.NaN(), 0, "non-finite"},
		{math.Inf(1), 0, "non-finite"},
		{1e300, 0, "out of range"},
		{9.3e18, 0, "out of range"},
		// plain string: bytes.
		{"1024", 1024, ""},
		{"many", 0, "invalid"},
		{"-1024", 0, "negative"},
		{"NaN", 0, "invalid"},
		{"9223372036854775808", 0, "invalid"},
		// suffixed string: binary and decimal units.
		{"128Mi", 128 << 20, ""},
		{"1Gi", 1 << 30, ""},
		{"2Ki", 2048, ""},
		{"64M", 64_000_000, ""},
		{"1G", 1_000_000_000, ""},
		{"5K", 5_000, ""},
		{"8589934591Gi", 8589934591 << 30, ""},
		{"xMi", 0, "invalid"},
		{"-1Gi", 0, "negative"},
		{"8589934592Gi", 0, "out of range"},
		{"9000000000Gi", 0, "out of range"},
		{"9300000000000000K", 0, "out of range"},
	})
}

func TestAnnotateParsesResourceRequests(t *testing.T) {
	src := `
spec:
  template:
    spec:
      containers:
      - name: heavy
        image: heavy:1
        resources:
          requests:
            cpu: 1500m
            memory: 256Mi
`
	def, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Annotate(def, reg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cs := a.Containers[0]
	if cs.CPUMillis != 1500 || cs.MemoryBytes != 256<<20 {
		t.Fatalf("requests = %d / %d", cs.CPUMillis, cs.MemoryBytes)
	}
	// Invalid quantities surface as errors.
	bad := `
spec:
  template:
    spec:
      containers:
      - name: x
        image: x:1
        resources:
          requests:
            cpu: lots
`
	defBad, _ := Parse(bad)
	if _, err := Annotate(defBad, reg, Options{}); err == nil {
		t.Fatal("invalid cpu quantity accepted")
	}
	// So do negative, non-finite and out-of-range ones, naming the container.
	for req, want := range map[string]string{
		"cpu: -500m":             "negative",
		"memory: -1Gi":           "negative",
		"cpu: 1e300":             "out of range",
		`cpu: "NaN"`:             "non-finite",
		"cpu: 10000000000000000": "out of range",
		"memory: 9000000000Gi":   "out of range",
		"memory: 1e300":          "out of range",
	} {
		neg := `
spec:
  template:
    spec:
      containers:
      - image: ok:1
      - image: x:1
        resources:
          requests:
            ` + req + "\n"
		defNeg, err := Parse(neg)
		if err != nil {
			t.Fatal(err)
		}
		_, err = Annotate(defNeg, reg, Options{})
		if err == nil || !strings.Contains(err.Error(), "container 1") || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err = %v, want a %q error for container 1", req, err, want)
		}
	}
}

func TestRuntimeClassParsed(t *testing.T) {
	src := `
spec:
  template:
    spec:
      runtimeClassName: wasm
      containers:
      - name: fn
        image: web:wasm
`
	def, _ := Parse(src)
	a, err := Annotate(def, reg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.RuntimeClass != "wasm" {
		t.Fatalf("RuntimeClass = %q", a.RuntimeClass)
	}
}

// TestAnnotateTargetPortNamesOneContainer: once a container declares a port
// or the Service a targetPort, the target port must name exactly one
// container port. With none, no container serves the Service; with two,
// both would listen on its host port. A definition with no port anywhere
// needs none.
func TestAnnotateTargetPortNamesOneContainer(t *testing.T) {
	for _, c := range []struct {
		name    string
		ports   []int  // one container each, 0 for none
		service string // the Service's port entry, "" for a generated Service
		want    int    // the target port, 0 for an error
		listed  string // the declared ports the error names
	}{
		{"no port anywhere", []int{0}, "", 80, ""},
		{"no container port, Service port only", []int{0, 0}, "port: 9000", 9000, ""},
		{"one container port", []int{80}, "", 80, ""},
		{"targetPort names the second container", []int{80, 8080}, "port: 80\n    targetPort: 8080", 8080, ""},
		{"targetPort names no container", []int{80}, "port: 80\n    targetPort: 7070", 0, "[80]"},
		{"Service port names no container", []int{80}, "port: 8080", 0, "[80]"},
		{"targetPort with no container port", []int{0}, "port: 80\n    targetPort: 80", 0, "[]"},
		{"two containers on the target port", []int{80, 80}, "", 0, "[80 80]"},
		{"two containers on the declared target port", []int{80, 9090, 9090}, "port: 80\n    targetPort: 9090", 0, "[80 9090 9090]"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var y strings.Builder
			y.WriteString("spec:\n  template:\n    spec:\n      containers:\n")
			for i, port := range c.ports {
				fmt.Fprintf(&y, "      - name: c%d\n        image: nginx:1.23.2\n", i)
				if port > 0 {
					fmt.Fprintf(&y, "        ports:\n        - containerPort: %d\n", port)
				}
			}
			if c.service != "" {
				fmt.Fprintf(&y, "---\nkind: Service\nspec:\n  ports:\n  - %s\n", c.service)
			}
			def, err := Parse(y.String())
			if err != nil {
				t.Fatal(err)
			}
			a, err := Annotate(def, reg, Options{})
			if c.want > 0 {
				if err != nil || a.TargetPort != c.want {
					t.Fatalf("Annotate = %+v, %v; want target port %d", a, err, c.want)
				}
				return
			}
			if err == nil {
				t.Fatalf("Annotate accepted target port %d over container ports %v", a.TargetPort, c.ports)
			}
			for _, want := range []string{reg.UniqueName(), "target port", c.listed} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not name %q", err, want)
				}
			}
		})
	}
}
