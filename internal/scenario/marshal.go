package scenario

import (
	"bytes"
	"fmt"
	"reflect"
	"strconv"
	"strings"
)

// Marshal renders a Spec as the canonical YAML template: fields in schema
// order, absent sections omitted, scalar lists in flow style. The output
// is a pure function of the Spec — byte-stable across runs and Go
// versions — so shipped templates diff cleanly, and Parse(Marshal(s))
// reproduces s exactly (the round-trip property test pins both).
func Marshal(s *Spec) []byte {
	e := &emitter{}
	e.fields(0, reflect.ValueOf(s).Elem(), false)
	return e.b.Bytes()
}

// keepZero lets a schema type emit an omitempty field that is zero.
type keepZero interface{ keepZero(key string) bool }

// fields emits an addressable struct's fields in schema order at level
// ind, skipping empty omitempty fields. A list item passes dash, which
// hangs the sequence dash on its first line; every list element type
// in the schema starts with a scalar field.
func (e *emitter) fields(ind int, v reflect.Value, dash bool) {
	keep, _ := v.Addr().Interface().(keepZero)
	for _, f := range schemas[v.Type()].fields {
		fv := v.Field(f.index)
		if f.omitempty && (fv.IsZero() || fv.Kind() == reflect.Slice && fv.Len() == 0) &&
			(keep == nil || !keep.keepZero(f.key)) {
			continue
		}
		e.field(ind, f.key, fv, dash)
		dash = false
	}
}

// field emits one key: a section as a nested block, a list of structs as
// a block sequence, a list of integers in flow style, a scalar inline.
func (e *emitter) field(ind int, key string, v reflect.Value, dash bool) {
	if v.Kind() == reflect.Pointer {
		v = v.Elem()
	}
	var x any
	switch v.Kind() {
	case reflect.Struct:
		e.key(ind, key)
		e.fields(ind+1, v, false)
		return
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Struct {
			e.key(ind, key)
			for i := 0; i < v.Len(); i++ {
				e.fields(ind+2, v.Index(i), true)
			}
			return
		}
		parts := make([]string, v.Len())
		for i := range parts {
			parts[i] = strconv.FormatInt(v.Index(i).Int(), 10)
		}
		x = flow(parts)
	case reflect.String:
		x = v.String()
	case reflect.Bool:
		x = v.Bool()
	case reflect.Int, reflect.Int64:
		x = v.Int()
	case reflect.Float64:
		x = v.Float()
	}
	if dash {
		e.item(ind-1, key, x)
	} else {
		e.scalar(ind, key, x)
	}
}

type emitter struct {
	b bytes.Buffer
}

const indentStep = "  "

func (e *emitter) indent(n int) {
	for i := 0; i < n; i++ {
		e.b.WriteString(indentStep)
	}
}

// key emits "key:" opening a nested block.
func (e *emitter) key(ind int, key string) {
	e.indent(ind)
	e.b.WriteString(key)
	e.b.WriteString(":\n")
}

// scalar emits "key: value".
func (e *emitter) scalar(ind int, key string, v any) {
	e.indent(ind)
	e.b.WriteString(key)
	e.b.WriteString(": ")
	e.b.WriteString(renderScalar(v))
	e.b.WriteByte('\n')
}

// item emits "- key: value" with the dash at level ind, starting a
// sequence item whose further fields follow at level ind+1 (the column
// of the first key).
func (e *emitter) item(ind int, key string, v any) {
	e.indent(ind)
	e.b.WriteString("- ")
	e.b.WriteString(key)
	e.b.WriteString(": ")
	e.b.WriteString(renderScalar(v))
	e.b.WriteByte('\n')
}

// flow wraps pre-rendered scalars in a flow sequence; the marker type
// tells renderScalar to emit it verbatim.
type flowSeq string

func flow(parts []string) flowSeq {
	return flowSeq("[" + strings.Join(parts, ", ") + "]")
}

func renderScalar(v any) string {
	switch t := v.(type) {
	case flowSeq:
		return string(t)
	case string:
		return renderString(t)
	case bool:
		if t {
			return "true"
		}
		return "false"
	case int64:
		return strconv.FormatInt(t, 10)
	case float64:
		return strconv.FormatFloat(t, 'g', -1, 64)
	}
	panic(fmt.Sprintf("scenario: cannot marshal %T", v))
}

// renderString emits a plain scalar when the parser would read it back as
// exactly this string, a double-quoted one otherwise.
func renderString(s string) string {
	if plainSafe(s) {
		return s
	}
	return strconv.Quote(s)
}

func plainSafe(s string) bool {
	if s == "" || s != strings.TrimSpace(s) {
		return false
	}
	// Reparse ambiguity: null/bool/number-looking strings must quote.
	switch s {
	case "null", "~", "true", "false":
		return false
	}
	if looksNumeric(s) {
		return false
	}
	first := s[0]
	switch first {
	case '[', '{', '&', '*', '|', '>', '%', '@', '`', ',', ']', '}', '"', '\'', '-', '?', '!':
		return false
	}
	if strings.Contains(s, " #") || strings.ContainsAny(s, "\n\t") {
		return false
	}
	// A ":" followed by space (or at end) would parse as a key split on
	// the first such line — values are taken verbatim after the key
	// split, so a colon inside a value is fine, but keep flow markers
	// out.
	return true
}
