// Package yaml implements the YAML subset needed for Kubernetes-style
// service definition files: block mappings and sequences nested by
// indentation, plain/quoted scalars (string, int, float, bool, null),
// comments, multi-document streams separated by "---", and simple one-line
// flow sequences ([a, b]) and mappings ({k: v}).
//
// Decoded values use the canonical Go forms map[string]any, []any, string,
// int64, float64, bool, and nil. Encode renders those forms back to YAML
// with deterministic (sorted) key order, so Encode/Decode round-trips.
package yaml

import (
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"
)

// Decode parses the first document in src.
func Decode(src string) (any, error) {
	docs, err := DecodeAll(src)
	if err != nil {
		return nil, err
	}
	if len(docs) == 0 {
		return nil, nil
	}
	return docs[0], nil
}

// DecodeAll parses every document in src (documents are separated by ---).
func DecodeAll(src string) ([]any, error) {
	lines := splitLines(src)
	var docs []any
	start := 0
	flush := func(end int) error {
		chunk := lines[start:end]
		if !hasContent(chunk) {
			return nil
		}
		p := &parser{lines: chunk}
		v, err := p.parseBlock(0)
		if err != nil {
			return err
		}
		if !p.atEnd() {
			l := p.peek()
			return fmt.Errorf("yaml: line %d: unexpected content %q (bad indentation?)", l.num, l.text)
		}
		docs = append(docs, v)
		return nil
	}
	for i, l := range lines {
		if strings.TrimRight(l.text, " ") == "---" && l.indent == 0 {
			if err := flush(i); err != nil {
				return nil, err
			}
			start = i + 1
		}
	}
	if err := flush(len(lines)); err != nil {
		return nil, err
	}
	return docs, nil
}

type line struct {
	num    int // 1-based source line number
	indent int
	text   string // content without indentation
	// comment marks a comment-only line: invisible to the structure
	// parser, but literal content inside a block scalar.
	comment bool
}

// blankIndent marks a blank (or comment-only) line kept in the stream so
// block scalars can preserve interior empty lines.
const blankIndent = -2

func splitLines(src string) []line {
	raw := strings.Split(src, "\n")
	var out []line
	for i, r := range raw {
		trimmed := strings.TrimLeft(r, " \t")
		if trimmed == "" {
			out = append(out, line{num: i + 1, indent: blankIndent})
			continue
		}
		if strings.HasPrefix(trimmed, "#") {
			out = append(out, line{
				num: i + 1, indent: len(r) - len(trimmed),
				text: strings.TrimRight(trimmed, " "), comment: true,
			})
			continue
		}
		if strings.Contains(r[:len(r)-len(trimmed)], "\t") {
			// Tabs in indentation are invalid YAML; mark the line so the
			// parser reports it with its line number.
			out = append(out, line{num: i + 1, indent: -1, text: trimmed})
			continue
		}
		out = append(out, line{num: i + 1, indent: len(r) - len(trimmed), text: strings.TrimRight(trimmed, " ")})
	}
	return out
}

func hasContent(ls []line) bool {
	for _, l := range ls {
		if l.indent == blankIndent || l.comment {
			continue
		}
		if strings.TrimRight(l.text, " ") != "---" {
			return true
		}
	}
	return false
}

type parser struct {
	lines []line
	pos   int
}

// skipBlanks advances past blank-line and comment-line markers (they only
// matter inside block scalars).
func (p *parser) skipBlanks() {
	for p.pos < len(p.lines) && (p.lines[p.pos].indent == blankIndent || p.lines[p.pos].comment) {
		p.pos++
	}
}

func (p *parser) atEnd() bool {
	p.skipBlanks()
	return p.pos >= len(p.lines)
}
func (p *parser) peek() line { p.skipBlanks(); return p.lines[p.pos] }
func (p *parser) advance()   { p.pos++ }

// parseBlock parses a block (mapping, sequence, or scalar) whose items are
// indented at least minIndent.
func (p *parser) parseBlock(minIndent int) (any, error) {
	if p.atEnd() {
		return nil, nil
	}
	l := p.peek()
	if l.indent < 0 {
		return nil, fmt.Errorf("yaml: line %d: tab character in indentation", l.num)
	}
	if l.indent < minIndent {
		return nil, nil
	}
	if strings.HasPrefix(l.text, "- ") || l.text == "-" {
		return p.parseSequence(l.indent)
	}
	if isMappingLine(l.text) {
		return p.parseMapping(l.indent)
	}
	// Bare scalar document.
	p.advance()
	return parseScalar(l.text)
}

// isMappingLine reports whether text looks like "key: ..." or "key:".
func isMappingLine(text string) bool {
	_, _, ok := splitKeyValue(text)
	return ok
}

// splitKeyValue splits "key: value" respecting quoted keys.
func splitKeyValue(text string) (key, value string, ok bool) {
	rest := text
	var k string
	if strings.HasPrefix(rest, `"`) || strings.HasPrefix(rest, `'`) {
		quote := rest[0]
		end := -1
		esc := false
		for i := 1; i < len(rest); i++ {
			switch {
			case esc:
				esc = false
			case quote == '"' && rest[i] == '\\':
				esc = true
			case rest[i] == quote:
				end = i
			}
			if end >= 0 {
				break
			}
		}
		if end < 0 {
			return "", "", false
		}
		k = rest[:end+1]
		rest = rest[end+1:]
		if !strings.HasPrefix(rest, ":") {
			return "", "", false
		}
		rest = rest[1:]
	} else {
		idx := -1
		for i := 0; i < len(rest); i++ {
			if rest[i] == ':' {
				if i+1 == len(rest) || rest[i+1] == ' ' {
					idx = i
					break
				}
			}
			// A '#' outside quotes starts a comment; keys never contain it.
			if rest[i] == '#' {
				break
			}
		}
		if idx < 0 {
			return "", "", false
		}
		k = rest[:idx]
		rest = rest[idx+1:]
	}
	if strings.ContainsAny(k, "{}[]") {
		return "", "", false
	}
	return strings.TrimSpace(k), strings.TrimSpace(rest), true
}

func (p *parser) parseMapping(indent int) (any, error) {
	m := map[string]any{}
	for !p.atEnd() {
		l := p.peek()
		if l.indent < indent {
			break
		}
		if l.indent > indent {
			return nil, fmt.Errorf("yaml: line %d: unexpected indentation", l.num)
		}
		rawKey, rawVal, ok := splitKeyValue(l.text)
		if !ok {
			break
		}
		key, err := unquoteKey(rawKey)
		if err != nil {
			return nil, fmt.Errorf("yaml: line %d: %v", l.num, err)
		}
		if _, dup := m[key]; dup {
			return nil, fmt.Errorf("yaml: line %d: duplicate key %q", l.num, key)
		}
		rawVal = stripComment(rawVal)
		p.advance()
		if isBlockScalarHeader(rawVal) {
			v, err := p.parseBlockScalar(l.indent, rawVal)
			if err != nil {
				return nil, fmt.Errorf("yaml: line %d: %v", l.num, err)
			}
			m[key] = v
			continue
		}
		if rawVal == "" {
			// Nested block or null.
			child, err := p.parseChild(indent)
			if err != nil {
				return nil, err
			}
			m[key] = child
		} else {
			v, err := parseScalar(rawVal)
			if err != nil {
				return nil, fmt.Errorf("yaml: line %d: %v", l.num, err)
			}
			m[key] = v
		}
	}
	return m, nil
}

// parseChild parses the value block following a "key:" or "-" line.
// Sequences may be indented at the same level as their parent key
// (a common Kubernetes style), mappings must be deeper.
func (p *parser) parseChild(parentIndent int) (any, error) {
	if p.atEnd() {
		return nil, nil
	}
	l := p.peek()
	if l.indent < 0 {
		return nil, fmt.Errorf("yaml: line %d: tab character in indentation", l.num)
	}
	isSeq := strings.HasPrefix(l.text, "- ") || l.text == "-"
	if isSeq && l.indent >= parentIndent {
		return p.parseSequence(l.indent)
	}
	if l.indent > parentIndent {
		return p.parseBlock(l.indent)
	}
	return nil, nil
}

func (p *parser) parseSequence(indent int) (any, error) {
	var seq []any
	for !p.atEnd() {
		l := p.peek()
		if l.indent != indent || !(strings.HasPrefix(l.text, "- ") || l.text == "-") {
			break
		}
		p.advance()
		rest := strings.TrimSpace(strings.TrimPrefix(l.text, "-"))
		rest = stripComment(rest)
		if rest == "" {
			child, err := p.parseChild(indent)
			if err != nil {
				return nil, err
			}
			seq = append(seq, child)
			continue
		}
		if k, v, ok := splitKeyValue(rest); ok {
			// Mapping starting on the dash line: "- name: x" — subsequent
			// keys are indented to the position after "- ".
			itemIndent := indent + 2
			item := map[string]any{}
			key, err := unquoteKey(k)
			if err != nil {
				return nil, fmt.Errorf("yaml: line %d: %v", l.num, err)
			}
			if v == "" {
				child, cerr := p.parseChild(itemIndent)
				if cerr != nil {
					return nil, cerr
				}
				item[key] = child
			} else {
				sv, serr := parseScalar(v)
				if serr != nil {
					return nil, fmt.Errorf("yaml: line %d: %v", l.num, serr)
				}
				item[key] = sv
			}
			// Continue the mapping on following lines at itemIndent.
			more, err := p.parseMapping(itemIndent)
			if err != nil {
				return nil, err
			}
			for mk, mv := range more.(map[string]any) {
				if _, dup := item[mk]; dup {
					return nil, fmt.Errorf("yaml: line %d: duplicate key %q", l.num, mk)
				}
				item[mk] = mv
			}
			seq = append(seq, item)
			continue
		}
		v, err := parseScalar(rest)
		if err != nil {
			return nil, fmt.Errorf("yaml: line %d: %v", l.num, err)
		}
		seq = append(seq, v)
	}
	return seq, nil
}

func stripComment(s string) string {
	inS, inD := false, false
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			if inD {
				i++ // skip the escaped character
			}
		case '\'':
			if !inD {
				inS = !inS
			}
		case '"':
			if !inS {
				inD = !inD
			}
		case '#':
			if !inS && !inD && (i == 0 || s[i-1] == ' ') {
				return strings.TrimRight(s[:i], " ")
			}
		}
	}
	return s
}

func unquoteKey(k string) (string, error) {
	if strings.HasPrefix(k, `"`) || strings.HasPrefix(k, `'`) {
		v, err := parseScalar(k)
		if err != nil {
			return "", err
		}
		s, ok := v.(string)
		if !ok {
			return "", fmt.Errorf("invalid quoted key %q", k)
		}
		return s, nil
	}
	return k, nil
}

// isBlockScalarHeader reports whether a value introduces a block scalar.
func isBlockScalarHeader(v string) bool {
	switch v {
	case "|", "|-", "|+", ">", ">-", ">+":
		return true
	}
	return false
}

// parseBlockScalar consumes the indented block following a "key: |" (or >)
// header. parentIndent is the key's indentation; the block consists of all
// following lines (including blanks) indented deeper than the parent.
func (p *parser) parseBlockScalar(parentIndent int, header string) (string, error) {
	folded := header[0] == '>'
	chomp := byte(0)
	if len(header) > 1 {
		chomp = header[1]
	}
	// Find the block indentation from the first non-blank line.
	blockIndent := -1
	probe := p.pos
	for probe < len(p.lines) {
		l := p.lines[probe]
		if l.indent == blankIndent {
			probe++
			continue
		}
		if l.indent <= parentIndent {
			break
		}
		blockIndent = l.indent
		break
	}
	if blockIndent < 0 {
		// Empty block scalar.
		if chomp == '+' || chomp == 0 {
			return "", nil
		}
		return "", nil
	}
	var content []string // raw lines relative to blockIndent
	for p.pos < len(p.lines) {
		l := p.lines[p.pos]
		if l.indent == blankIndent {
			content = append(content, "")
			p.pos++
			continue
		}
		// Comment-looking lines inside the block are literal content.
		if l.indent < blockIndent {
			break
		}
		if l.indent < 0 {
			return "", fmt.Errorf("tab character in block scalar indentation")
		}
		content = append(content, strings.Repeat(" ", l.indent-blockIndent)+l.text)
		p.pos++
	}
	// Trailing blank lines are subject to chomping.
	trailing := 0
	for len(content) > 0 && content[len(content)-1] == "" {
		content = content[:len(content)-1]
		trailing++
	}
	var body string
	if folded {
		// Fold single newlines into spaces; blank lines become newlines.
		var parts []string
		cur := ""
		for _, ln := range content {
			switch {
			case ln == "":
				parts = append(parts, cur)
				cur = ""
			case cur == "":
				cur = ln
			default:
				cur += " " + ln
			}
		}
		parts = append(parts, cur)
		body = strings.Join(parts, "\n")
	} else {
		body = strings.Join(content, "\n")
	}
	switch chomp {
	case '-':
		return body, nil
	case '+':
		return body + strings.Repeat("\n", trailing+1), nil
	default:
		return body + "\n", nil
	}
}

// parseScalar interprets a flow value: quoted string, flow seq/map, or a
// plain scalar with YAML 1.2 core-schema typing.
func parseScalar(s string) (any, error) {
	s = strings.TrimSpace(s)
	switch {
	case s == "":
		return nil, nil
	case strings.HasPrefix(s, `"`):
		if len(s) < 2 || !strings.HasSuffix(s, `"`) {
			return nil, fmt.Errorf("unterminated double-quoted string %q", s)
		}
		return strconv.Unquote(s)
	case strings.HasPrefix(s, `'`):
		if len(s) < 2 || !strings.HasSuffix(s, `'`) {
			return nil, fmt.Errorf("unterminated single-quoted string %q", s)
		}
		return strings.ReplaceAll(s[1:len(s)-1], "''", "'"), nil
	case strings.HasPrefix(s, "["):
		return parseFlowSeq(s)
	case strings.HasPrefix(s, "{"):
		return parseFlowMap(s)
	}
	switch s {
	case "null", "~", "Null", "NULL":
		return nil, nil
	case "true", "True", "TRUE":
		return true, nil
	case "false", "False", "FALSE":
		return false, nil
	}
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		return i, nil
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil && looksNumeric(s) {
		return f, nil
	}
	return s, nil
}

// looksNumeric guards against ParseFloat accepting "Inf"/"NaN"-ish strings
// we'd rather treat as text.
func looksNumeric(s string) bool {
	for _, r := range s {
		if (r >= '0' && r <= '9') || r == '.' || r == '-' || r == '+' || r == 'e' || r == 'E' {
			continue
		}
		return false
	}
	return true
}

func parseFlowSeq(s string) (any, error) {
	if !strings.HasSuffix(s, "]") {
		return nil, fmt.Errorf("unterminated flow sequence %q", s)
	}
	inner := strings.TrimSpace(s[1 : len(s)-1])
	if inner == "" {
		return []any{}, nil
	}
	parts, err := splitFlow(inner)
	if err != nil {
		return nil, err
	}
	seq := make([]any, 0, len(parts))
	for _, part := range parts {
		v, err := parseScalar(part)
		if err != nil {
			return nil, err
		}
		seq = append(seq, v)
	}
	return seq, nil
}

func parseFlowMap(s string) (any, error) {
	if !strings.HasSuffix(s, "}") {
		return nil, fmt.Errorf("unterminated flow mapping %q", s)
	}
	inner := strings.TrimSpace(s[1 : len(s)-1])
	m := map[string]any{}
	if inner == "" {
		return m, nil
	}
	parts, err := splitFlow(inner)
	if err != nil {
		return nil, err
	}
	for _, part := range parts {
		k, v, ok := splitKeyValue(strings.TrimSpace(part))
		if !ok {
			return nil, fmt.Errorf("invalid flow mapping entry %q", part)
		}
		key, err := unquoteKey(k)
		if err != nil {
			return nil, err
		}
		val, err := parseScalar(v)
		if err != nil {
			return nil, err
		}
		m[key] = val
	}
	return m, nil
}

// splitFlow splits flow content on top-level commas, honouring quotes and
// nested brackets.
func splitFlow(s string) ([]string, error) {
	var parts []string
	depth := 0
	inS, inD := false, false
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			if inD {
				i++ // skip the escaped character
			}
		case '\'':
			if !inD {
				inS = !inS
			}
		case '"':
			if !inS {
				inD = !inD
			}
		case '[', '{':
			if !inS && !inD {
				depth++
			}
		case ']', '}':
			if !inS && !inD {
				depth--
				if depth < 0 {
					return nil, fmt.Errorf("unbalanced brackets in %q", s)
				}
			}
		case ',':
			if !inS && !inD && depth == 0 {
				parts = append(parts, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	if depth != 0 || inS || inD {
		return nil, fmt.Errorf("unbalanced flow syntax in %q", s)
	}
	parts = append(parts, strings.TrimSpace(s[start:]))
	return parts, nil
}

// Encode renders v (canonical forms) as YAML with two-space indentation and
// sorted mapping keys.
func Encode(v any) string {
	var b strings.Builder
	encodeValue(&b, v, 0, false)
	out := b.String()
	if out == "" {
		return "null\n"
	}
	return out
}

// EncodeAll renders multiple documents separated by "---".
func EncodeAll(docs []any) string {
	var b strings.Builder
	for i, d := range docs {
		if i > 0 {
			b.WriteString("---\n")
		}
		b.WriteString(Encode(d))
	}
	return b.String()
}

func encodeValue(b *strings.Builder, v any, indent int, inSeq bool) {
	pad := strings.Repeat("  ", indent)
	switch t := v.(type) {
	case map[string]any:
		if len(t) == 0 {
			fmt.Fprintf(b, "%s{}\n", seqPad(pad, inSeq))
			return
		}
		keys := slices.Sorted(maps.Keys(t))
		for i, k := range keys {
			prefix := pad
			if inSeq && i == 0 {
				prefix = pad[:len(pad)-2] + "- "
			}
			val := t[k]
			switch val.(type) {
			case map[string]any, []any:
				if isEmptyComposite(val) {
					fmt.Fprintf(b, "%s%s: %s\n", prefix, encodeKey(k), emptyComposite(val))
				} else {
					fmt.Fprintf(b, "%s%s:\n", prefix, encodeKey(k))
					encodeValue(b, val, indent+1, false)
				}
			default:
				fmt.Fprintf(b, "%s%s: %s\n", prefix, encodeKey(k), encodeScalar(val))
			}
		}
	case []any:
		if len(t) == 0 {
			fmt.Fprintf(b, "%s[]\n", seqPad(pad, inSeq))
			return
		}
		for _, item := range t {
			switch item.(type) {
			case map[string]any:
				if isEmptyComposite(item) {
					fmt.Fprintf(b, "%s- {}\n", pad)
				} else {
					encodeValue(b, item, indent+1, true)
				}
			case []any:
				if isEmptyComposite(item) {
					fmt.Fprintf(b, "%s- []\n", pad)
				} else {
					fmt.Fprintf(b, "%s-\n", pad)
					encodeValue(b, item, indent+1, false)
				}
			default:
				fmt.Fprintf(b, "%s- %s\n", pad, encodeScalar(item))
			}
		}
	default:
		fmt.Fprintf(b, "%s%s\n", seqPad(pad, inSeq), encodeScalar(v))
	}
}

func seqPad(pad string, inSeq bool) string {
	if inSeq {
		return pad[:len(pad)-2] + "- "
	}
	return pad
}

func isEmptyComposite(v any) bool {
	switch t := v.(type) {
	case map[string]any:
		return len(t) == 0
	case []any:
		return len(t) == 0
	}
	return false
}

func emptyComposite(v any) string {
	if _, ok := v.([]any); ok {
		return "[]"
	}
	return "{}"
}

func encodeKey(k string) string {
	if needsQuoting(k) {
		return strconv.Quote(k)
	}
	return k
}

func encodeScalar(v any) string {
	switch t := v.(type) {
	case nil:
		return "null"
	case bool:
		return strconv.FormatBool(t)
	case int:
		return strconv.Itoa(t)
	case int64:
		return strconv.FormatInt(t, 10)
	case float64:
		return strconv.FormatFloat(t, 'g', -1, 64)
	case string:
		if needsQuoting(t) {
			return strconv.Quote(t)
		}
		return t
	default:
		return strconv.Quote(fmt.Sprint(t))
	}
}

// needsQuoting reports whether a plain rendering of s would not decode back
// to the identical string.
func needsQuoting(s string) bool {
	if s == "" {
		return true
	}
	switch s {
	case "null", "~", "Null", "NULL", "true", "True", "TRUE", "false", "False", "FALSE":
		return true
	}
	if _, err := strconv.ParseInt(s, 10, 64); err == nil {
		return true
	}
	if _, err := strconv.ParseFloat(s, 64); err == nil && looksNumeric(s) {
		return true
	}
	if strings.ContainsAny(s, ":#{}[]\"'\n\t,&*!|>%@`") {
		// ':' only matters before space/EOL, but quoting is always safe.
		if !strings.Contains(s, ": ") && !strings.HasSuffix(s, ":") &&
			!strings.ContainsAny(s, "#{}[]\"'\n\t&*!|>%@`") {
			return false
		}
		return true
	}
	if s != strings.TrimSpace(s) {
		return true
	}
	if strings.HasPrefix(s, "- ") || s == "-" {
		return true
	}
	return false
}
