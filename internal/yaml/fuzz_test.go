package yaml

import (
	"reflect"
	"testing"
)

// FuzzDecode checks that arbitrary input never panics the parser and that
// any successfully decoded document is stable under an encode/decode round
// trip (Encode canonicalizes, so decode(encode(v)) == decode(encode(decode(encode(v))))).
func FuzzDecode(f *testing.F) {
	seeds := []string{
		"",
		"a: 1",
		"a:\n  b: c\n",
		"- 1\n- 2\n",
		"a: [1, {b: c}]\n",
		"---\na: 1\n---\nb: 2\n",
		"key: \"quo\\\"ted\"\n",
		"k: 'single''quote'\n",
		"a:\n- b: 1\n  c: 2\n",
		"# comment\nx: y # trailing\n",
		"spec:\n  template:\n    spec:\n      containers:\n      - image: nginx\n",
		"a: |\n  block\n",
		"\t: bad",
		"{: :}",
		"a: [1, [2, [3]]]",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		v, err := decode(src)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		enc := Encode(v)
		v2, err := decode(enc)
		if err != nil {
			t.Fatalf("re-decode of encoded failed: %v\nvalue: %#v\nencoded:\n%s", err, v, enc)
		}
		enc2 := Encode(v2)
		v3, err := decode(enc2)
		if err != nil {
			t.Fatalf("third decode failed: %v", err)
		}
		if !reflect.DeepEqual(v2, v3) {
			t.Fatalf("encode/decode not stable:\n v2=%#v\n v3=%#v", v2, v3)
		}
	})
}
