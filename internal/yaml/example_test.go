package yaml_test

import (
	"fmt"

	"transparentedge/internal/yaml"
)

// Encode renders canonical values deterministically (sorted keys), so the
// output is stable and re-decodable.
func ExampleEncode() {
	fmt.Print(yaml.Encode(map[string]any{
		"kind":     "Service",
		"metadata": map[string]any{"name": "web"},
		"ports":    []any{int64(80)},
	}))
	// Output:
	// kind: Service
	// metadata:
	//   name: web
	// ports:
	//   - 80
}

// DecodeAll reads multi-document streams (Deployment + Service files).
func ExampleDecodeAll() {
	docs, err := yaml.DecodeAll("kind: Deployment\n---\nkind: Service\n")
	if err != nil {
		panic(err)
	}
	for _, d := range docs {
		fmt.Println(d.(map[string]any)["kind"])
	}
	// Output:
	// Deployment
	// Service
}
