package yaml

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// decode parses the first document in src.
func decode(src string) (any, error) {
	docs, err := DecodeAll(src)
	if err != nil || len(docs) == 0 {
		return nil, err
	}
	return docs[0], nil
}

func TestDecodeScalars(t *testing.T) {
	cases := []struct {
		in   string
		want any
	}{
		{"hello", "hello"},
		{"42", int64(42)},
		{"-7", int64(-7)},
		{"3.14", 3.14},
		{"+3", int64(3)},
		{".5", 0.5},
		{"-.5e1", -5.0},
		{"e5", "e5"},
		{"Inf", "Inf"},
		{"true", true},
		{"false", false},
		{"null", nil},
		{"~", nil},
		{`"quoted: string"`, "quoted: string"},
		{`'single ''quoted'''`, "single 'quoted'"},
		{`"esc\nape"`, "esc\nape"},
	}
	for _, c := range cases {
		got, err := decode(c.in)
		if err != nil {
			t.Errorf("Decode(%q) error: %v", c.in, err)
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("Decode(%q) = %#v, want %#v", c.in, got, c.want)
		}
	}
}

// TestPlainWordSkipsNumberParses: a plain scalar that cannot start a number
// costs only its boxing into the returned interface, not the two
// *strconv.NumError a failed ParseInt and ParseFloat would allocate.
func TestPlainWordSkipsNumberParses(t *testing.T) {
	var sink any
	avg := testing.AllocsPerRun(100, func() { sink, _ = parseScalar("nginx:1.25") })
	if sink != "nginx:1.25" || avg > 1 {
		t.Errorf("parseScalar of a plain word: %v in %.0f allocs, want it back in at most 1", sink, avg)
	}
}

func TestDecodeMapping(t *testing.T) {
	got, err := decode("name: nginx\nreplicas: 3\nenabled: true\n")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]any{"name": "nginx", "replicas": int64(3), "enabled": true}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %#v, want %#v", got, want)
	}
}

func TestDecodeNested(t *testing.T) {
	src := `
metadata:
  name: web
  labels:
    app: web
    tier: frontend
spec:
  replicas: 2
`
	got, err := decode(src)
	if err != nil {
		t.Fatal(err)
	}
	m := got.(map[string]any)
	meta := m["metadata"].(map[string]any)
	if meta["name"] != "web" {
		t.Errorf("metadata.name = %v", meta["name"])
	}
	labels := meta["labels"].(map[string]any)
	if labels["tier"] != "frontend" {
		t.Errorf("labels = %#v", labels)
	}
	if m["spec"].(map[string]any)["replicas"] != int64(2) {
		t.Errorf("spec.replicas = %v", m["spec"])
	}
}

func TestDecodeSequences(t *testing.T) {
	src := `
ports:
  - 80
  - 443
names:
  - alpha
  - beta
`
	got, err := decode(src)
	if err != nil {
		t.Fatal(err)
	}
	m := got.(map[string]any)
	if !reflect.DeepEqual(m["ports"], []any{int64(80), int64(443)}) {
		t.Errorf("ports = %#v", m["ports"])
	}
	if !reflect.DeepEqual(m["names"], []any{"alpha", "beta"}) {
		t.Errorf("names = %#v", m["names"])
	}
}

func TestDecodeSequenceOfMappings(t *testing.T) {
	src := `
containers:
  - name: nginx
    image: nginx:1.23.2
    ports:
      - containerPort: 80
  - name: sidecar
    image: env-writer-py
`
	got, err := decode(src)
	if err != nil {
		t.Fatal(err)
	}
	cs := got.(map[string]any)["containers"].([]any)
	if len(cs) != 2 {
		t.Fatalf("containers = %#v", cs)
	}
	c0 := cs[0].(map[string]any)
	if c0["image"] != "nginx:1.23.2" {
		t.Errorf("c0 = %#v", c0)
	}
	p0 := c0["ports"].([]any)[0].(map[string]any)
	if p0["containerPort"] != int64(80) {
		t.Errorf("ports = %#v", c0["ports"])
	}
	if cs[1].(map[string]any)["name"] != "sidecar" {
		t.Errorf("c1 = %#v", cs[1])
	}
}

func TestDecodeSequenceAtParentIndent(t *testing.T) {
	// Kubernetes style: sequence items at the same indent as the key.
	src := `
spec:
  containers:
  - name: a
  - name: b
`
	got, err := decode(src)
	if err != nil {
		t.Fatal(err)
	}
	cs := got.(map[string]any)["spec"].(map[string]any)["containers"].([]any)
	if len(cs) != 2 || cs[1].(map[string]any)["name"] != "b" {
		t.Fatalf("containers = %#v", cs)
	}
}

func TestDecodeComments(t *testing.T) {
	src := `
# leading comment
name: web  # trailing comment
image: "nginx:1.23.2" # with quotes
tag: 'v#1'
`
	got, err := decode(src)
	if err != nil {
		t.Fatal(err)
	}
	m := got.(map[string]any)
	if m["name"] != "web" || m["image"] != "nginx:1.23.2" || m["tag"] != "v#1" {
		t.Fatalf("m = %#v", m)
	}
}

func TestDecodeFlow(t *testing.T) {
	src := `
args: [serve, --port, 8080]
labels: {app: web, "edge.service": true}
empty: []
none: {}
`
	got, err := decode(src)
	if err != nil {
		t.Fatal(err)
	}
	m := got.(map[string]any)
	if !reflect.DeepEqual(m["args"], []any{"serve", "--port", int64(8080)}) {
		t.Errorf("args = %#v", m["args"])
	}
	labels := m["labels"].(map[string]any)
	if labels["app"] != "web" || labels["edge.service"] != true {
		t.Errorf("labels = %#v", labels)
	}
	if len(m["empty"].([]any)) != 0 {
		t.Errorf("empty = %#v", m["empty"])
	}
	if len(m["none"].(map[string]any)) != 0 {
		t.Errorf("none = %#v", m["none"])
	}
}

func TestDecodeMultiDocument(t *testing.T) {
	src := `
kind: Deployment
---
kind: Service
`
	docs, err := DecodeAll(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 2 {
		t.Fatalf("docs = %d, want 2", len(docs))
	}
	if docs[0].(map[string]any)["kind"] != "Deployment" ||
		docs[1].(map[string]any)["kind"] != "Service" {
		t.Fatalf("docs = %#v", docs)
	}
}

func TestDecodeNullValueKey(t *testing.T) {
	got, err := decode("emptyDir:\nname: x\n")
	if err != nil {
		t.Fatal(err)
	}
	m := got.(map[string]any)
	if v, ok := m["emptyDir"]; !ok || v != nil {
		t.Fatalf("emptyDir = %#v (present %v), want nil", v, ok)
	}
}

func TestDecodeDuplicateKeyError(t *testing.T) {
	if _, err := decode("a: 1\na: 2\n"); err == nil {
		t.Fatal("duplicate key accepted")
	}
}

func TestDecodeTabIndentError(t *testing.T) {
	if _, err := decode("a:\n\tb: 1\n"); err == nil {
		t.Fatal("tab indentation accepted")
	}
}

func TestDecodeKubernetesDeployment(t *testing.T) {
	src := `apiVersion: apps/v1
kind: Deployment
metadata:
  name: nginx-deployment
  labels:
    app: nginx
spec:
  replicas: 0
  selector:
    matchLabels:
      app: nginx
  template:
    metadata:
      labels:
        app: nginx
    spec:
      containers:
      - name: nginx
        image: nginx:1.23.2
        ports:
        - containerPort: 80
        volumeMounts:
        - name: shared
          mountPath: /usr/share/nginx/html
      volumes:
      - name: shared
        emptyDir: {}
`
	got, err := decode(src)
	if err != nil {
		t.Fatal(err)
	}
	m := got.(map[string]any)
	spec := m["spec"].(map[string]any)
	if spec["replicas"] != int64(0) {
		t.Errorf("replicas = %v", spec["replicas"])
	}
	tmpl := spec["template"].(map[string]any)["spec"].(map[string]any)
	ctr := tmpl["containers"].([]any)[0].(map[string]any)
	if ctr["image"] != "nginx:1.23.2" {
		t.Errorf("image = %v", ctr["image"])
	}
	vm := ctr["volumeMounts"].([]any)[0].(map[string]any)
	if vm["mountPath"] != "/usr/share/nginx/html" {
		t.Errorf("volumeMounts = %#v", vm)
	}
	vol := tmpl["volumes"].([]any)[0].(map[string]any)
	if ed, ok := vol["emptyDir"].(map[string]any); !ok || len(ed) != 0 {
		t.Errorf("emptyDir = %#v", vol["emptyDir"])
	}
}

func TestEncodeRoundTripDeployment(t *testing.T) {
	orig := map[string]any{
		"apiVersion": "apps/v1",
		"kind":       "Deployment",
		"metadata": map[string]any{
			"name":   "web",
			"labels": map[string]any{"app": "web", "edge.service": "web.example.com:80"},
		},
		"spec": map[string]any{
			"replicas": int64(0),
			"template": map[string]any{
				"spec": map[string]any{
					"containers": []any{
						map[string]any{
							"name":  "nginx",
							"image": "nginx:1.23.2",
							"ports": []any{map[string]any{"containerPort": int64(80)}},
						},
					},
				},
			},
		},
	}
	enc := Encode(orig)
	dec, err := decode(enc)
	if err != nil {
		t.Fatalf("decode of encoded: %v\n%s", err, enc)
	}
	if !reflect.DeepEqual(dec, orig) {
		t.Fatalf("round trip mismatch:\n got %#v\nwant %#v\nyaml:\n%s", dec, orig, enc)
	}
}

func TestEncodeScalarQuoting(t *testing.T) {
	cases := []any{"true", "123", "", "a: b", "web.example.com:80", "plain", int64(5), true, nil, 2.5}
	for _, v := range cases {
		enc := Encode(map[string]any{"k": v})
		dec, err := decode(enc)
		if err != nil {
			t.Errorf("decode(Encode(%#v)) error: %v (%q)", v, err, enc)
			continue
		}
		got := dec.(map[string]any)["k"]
		if !reflect.DeepEqual(got, v) {
			t.Errorf("round trip %#v -> %#v (yaml %q)", v, got, enc)
		}
	}
}

func TestEncodeAllMultiDoc(t *testing.T) {
	docs := []any{
		map[string]any{"kind": "Deployment"},
		map[string]any{"kind": "Service"},
	}
	enc := EncodeAll(docs)
	back, err := DecodeAll(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, docs) {
		t.Fatalf("round trip = %#v", back)
	}
}

// genValue builds a random canonical YAML value of bounded depth.
func genValue(r *rand.Rand, depth int) any {
	if depth <= 0 {
		return genScalar(r)
	}
	switch r.Intn(4) {
	case 0:
		n := r.Intn(4)
		m := map[string]any{}
		for i := 0; i < n; i++ {
			m[genKey(r, i)] = genValue(r, depth-1)
		}
		return m
	case 1:
		n := r.Intn(4)
		s := make([]any, 0, n)
		for i := 0; i < n; i++ {
			s = append(s, genValue(r, depth-1))
		}
		if len(s) == 0 {
			return []any{}
		}
		return s
	default:
		return genScalar(r)
	}
}

func genScalar(r *rand.Rand) any {
	switch r.Intn(6) {
	case 0:
		return int64(r.Intn(2000) - 1000)
	case 1:
		return r.Intn(2) == 0
	case 2:
		return nil
	case 3:
		words := []string{"nginx", "web server", "1.23.2", "edge.service", "a: b", "true", "-", "# not a comment", "x'y\"z", "  padded  "}
		return words[r.Intn(len(words))]
	case 4:
		return float64(r.Intn(100)) + 0.5
	default:
		var b strings.Builder
		n := r.Intn(8) + 1
		for i := 0; i < n; i++ {
			b.WriteByte(byte('a' + r.Intn(26)))
		}
		return b.String()
	}
}

func genKey(r *rand.Rand, i int) string {
	keys := []string{"name", "image", "labels", "spec", "replicas", "edge.service", "app", "x", "metadata", "ports"}
	return keys[(r.Intn(len(keys))+i*3)%len(keys)]
}

// Property: Encode then Decode returns the identical value.
func TestQuickEncodeDecodeRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	f := func() bool {
		v := genValue(r, 4)
		enc := Encode(v)
		dec, err := decode(enc)
		if err != nil {
			t.Logf("decode error: %v\nvalue: %#v\nyaml:\n%s", err, v, enc)
			return false
		}
		if !reflect.DeepEqual(normalize(dec), normalize(v)) {
			t.Logf("mismatch:\n got %#v\nwant %#v\nyaml:\n%s", dec, v, enc)
			return false
		}
		return true
	}
	if err := quick.Check(func() bool { return f() }, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// normalize maps empty/nil sequences to a common form (Decode cannot
// distinguish an absent block from an empty one).
func normalize(v any) any {
	switch t := v.(type) {
	case map[string]any:
		out := map[string]any{}
		for k, vv := range t {
			out[k] = normalize(vv)
		}
		return out
	case []any:
		if len(t) == 0 {
			return nil
		}
		out := make([]any, len(t))
		for i, vv := range t {
			out[i] = normalize(vv)
		}
		return out
	default:
		return v
	}
}

func TestDecodeErrorsCarryLineNumbers(t *testing.T) {
	_, err := decode("a: 1\nb: [1, 2\n")
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("err = %v, want line 2 mention", err)
	}
}

func TestDecodeEmpty(t *testing.T) {
	got, err := decode("")
	if err != nil || got != nil {
		t.Fatalf("decode(\"\") = %#v, %v", got, err)
	}
	got, err = decode("# only comments\n\n")
	if err != nil || got != nil {
		t.Fatalf("decode(comments) = %#v, %v", got, err)
	}
}

func TestEscapedQuoteBeforeComment(t *testing.T) {
	// Regression (found by fuzzing): a backslash-escaped quote inside a
	// double-quoted scalar must not confuse comment stripping.
	got, err := decode(`k: "0\"00 #"` + "\n")
	if err != nil {
		t.Fatal(err)
	}
	if got.(map[string]any)["k"] != `0"00 #` {
		t.Fatalf("got %#v", got)
	}
	// And in flow context.
	got, err = decode(`k: ["a\"b", 2]` + "\n")
	if err != nil {
		t.Fatal(err)
	}
	seq := got.(map[string]any)["k"].([]any)
	if seq[0] != `a"b` || seq[1] != int64(2) {
		t.Fatalf("flow got %#v", seq)
	}
}

func TestBlockScalarLiteral(t *testing.T) {
	src := `
script: |
  #!/bin/sh
  echo hello

  echo world
after: 1
`
	got, err := decode(src)
	if err != nil {
		t.Fatal(err)
	}
	m := got.(map[string]any)
	want := "#!/bin/sh\necho hello\n\necho world\n"
	if m["script"] != want {
		t.Fatalf("script = %q, want %q", m["script"], want)
	}
	if m["after"] != int64(1) {
		t.Fatalf("after = %v", m["after"])
	}
}

func TestBlockScalarLiteralStrip(t *testing.T) {
	got, err := decode("s: |-\n  line1\n  line2\n")
	if err != nil {
		t.Fatal(err)
	}
	if got.(map[string]any)["s"] != "line1\nline2" {
		t.Fatalf("s = %q", got.(map[string]any)["s"])
	}
}

func TestBlockScalarFolded(t *testing.T) {
	src := `
msg: >
  folded into
  one line

  second paragraph
`
	got, err := decode(src)
	if err != nil {
		t.Fatal(err)
	}
	want := "folded into one line\nsecond paragraph\n"
	if got.(map[string]any)["msg"] != want {
		t.Fatalf("msg = %q, want %q", got.(map[string]any)["msg"], want)
	}
}

func TestBlockScalarNestedIndentPreserved(t *testing.T) {
	src := `
cfg: |
  server {
    listen 80;
  }
`
	got, err := decode(src)
	if err != nil {
		t.Fatal(err)
	}
	want := "server {\n  listen 80;\n}\n"
	if got.(map[string]any)["cfg"] != want {
		t.Fatalf("cfg = %q, want %q", got.(map[string]any)["cfg"], want)
	}
}

func TestBlockScalarEmpty(t *testing.T) {
	got, err := decode("s: |\nnext: 2\n")
	if err != nil {
		t.Fatal(err)
	}
	m := got.(map[string]any)
	if m["s"] != "" || m["next"] != int64(2) {
		t.Fatalf("m = %#v", m)
	}
}

func TestBlockScalarInConfigMapShape(t *testing.T) {
	// The realistic Kubernetes use: a ConfigMap-style nested block scalar.
	src := `
kind: ConfigMap
data:
  nginx.conf: |
    worker_processes 1;
    events { worker_connections 1024; }
  motd: >-
    welcome to
    the edge
`
	got, err := decode(src)
	if err != nil {
		t.Fatal(err)
	}
	data := got.(map[string]any)["data"].(map[string]any)
	if data["nginx.conf"] != "worker_processes 1;\nevents { worker_connections 1024; }\n" {
		t.Fatalf("nginx.conf = %q", data["nginx.conf"])
	}
	if data["motd"] != "welcome to the edge" {
		t.Fatalf("motd = %q", data["motd"])
	}
}

func TestQuotedKeyWithEscapedBackslash(t *testing.T) {
	// Regression (found by fuzzing): a key ending in an escaped backslash
	// must round-trip through Encode/Decode.
	orig := map[string]any{`!\`: nil}
	enc := Encode(orig)
	got, err := decode(enc)
	if err != nil {
		t.Fatalf("decode %q: %v", enc, err)
	}
	if !reflect.DeepEqual(got, orig) {
		t.Fatalf("round trip = %#v, want %#v", got, orig)
	}
}
