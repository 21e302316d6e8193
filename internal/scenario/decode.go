package scenario

import (
	"fmt"
	"math"
	"reflect"
	"strings"
)

// field is one tagged struct field (the tags are the schema; see the
// package comment).
type field struct {
	key       string
	index     int
	omitempty bool
}

// schema lists a struct type's fields in declaration (= canonical) order.
type schema struct {
	fields []field
	keys   []string
}

// schemas holds the schema of every struct type reachable from Spec,
// filled once at start-up.
var schemas = map[reflect.Type]*schema{}

func init() {
	spec := reflect.TypeOf(Spec{})
	register(spec)
	sectionType := reflect.TypeOf((*section)(nil)).Elem()
	for _, f := range schemas[spec].fields {
		if spec.Field(f.index).Type.Implements(sectionType) {
			kinds = append(kinds, f)
		}
	}
}

func register(t reflect.Type) {
	s := &schema{}
	schemas[t] = s
	for i := 0; i < t.NumField(); i++ {
		sf := t.Field(i)
		tag, ok := sf.Tag.Lookup("yaml")
		if !ok {
			panic("scenario: untagged schema field " + t.Name() + "." + sf.Name)
		}
		key, opt, _ := strings.Cut(tag, ",")
		s.fields = append(s.fields, field{key: key, index: i, omitempty: opt == "omitempty"})
		s.keys = append(s.keys, key)
		ft := sf.Type
		if ft.Kind() == reflect.Pointer || ft.Kind() == reflect.Slice {
			ft = ft.Elem()
		}
		if ft.Kind() == reflect.Struct && schemas[ft] == nil {
			register(ft)
		}
	}
}

// The strict tree→Spec decoder records the first failure (with the file
// and dotted field path) and turns the rest of the walk into no-ops.
type dec struct {
	file string
	err  error
}

func (d *dec) fail(path, format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%s: %s: %s", d.file, path, fmt.Sprintf(format, args...))
	}
}

func typeName(v any) string {
	switch v.(type) {
	case nil:
		return "null"
	case map[string]any:
		return "mapping"
	case []any:
		return "sequence"
	case string:
		return "string"
	case bool:
		return "bool"
	case int64:
		return "integer"
	case float64:
		return "float"
	}
	return fmt.Sprintf("%T", v)
}

// expected names what a field of type t accepts, for type errors.
func expected(t reflect.Type) string {
	switch t.Kind() {
	case reflect.Pointer:
		return expected(t.Elem())
	case reflect.String:
		return "a string"
	case reflect.Bool:
		return "a bool"
	case reflect.Int, reflect.Int64:
		return "an integer"
	case reflect.Float64:
		return "a number"
	case reflect.Slice:
		return "a sequence"
	}
	return "a mapping"
}

// decodeSpec decodes a parsed document into a Spec.
func decodeSpec(d *dec, root any) *Spec {
	s := &Spec{}
	d.decode(root, "", reflect.ValueOf(s).Elem())
	if d.err != nil {
		return nil
	}
	return s
}

// decode stores the tree value v, found at path, in dst. Null leaves a scalar or list at
// its zero value, as an absent key does (a pointer field still records the
// explicit zero); a mapping, a bool and a list element must be spelled
// out. A present section that decodes to its zero value is rejected: it
// would marshal to a bare key that no parser reads back.
func (d *dec) decode(v any, path string, dst reflect.Value) {
	if d.err != nil {
		return
	}
	t := dst.Type()
	switch t.Kind() {
	case reflect.Pointer:
		elem := reflect.New(t.Elem())
		d.decode(v, path, elem.Elem())
		if d.err == nil && t.Elem().Kind() == reflect.Struct && elem.Elem().IsZero() {
			d.fail(path, "empty section (it sets no field to a non-zero value)")
		}
		dst.Set(elem)
		return
	case reflect.Struct:
		d.decodeStruct(v, path, dst)
		return
	case reflect.Bool:
		if b, ok := v.(bool); ok {
			dst.SetBool(b)
			return
		}
	case reflect.String:
		if s, ok := v.(string); ok || v == nil {
			dst.SetString(s)
			return
		}
	case reflect.Int, reflect.Int64:
		if n, ok := integral(v); ok || v == nil {
			if t.Kind() == reflect.Int && (n > math.MaxInt32 || n < math.MinInt32) {
				d.fail(path, "integer %d out of range", n)
			}
			dst.SetInt(n)
			return
		}
	case reflect.Float64:
		if f, ok := number(v); ok || v == nil {
			// An overflowing JSON number would marshal as +Inf, which
			// reads back as a string; -0 would read back as 0.
			if math.IsInf(f, 0) {
				d.fail(path, "number out of range")
			}
			if f == 0 {
				f = 0
			}
			dst.SetFloat(f)
			return
		}
	case reflect.Slice:
		if l, ok := v.([]any); ok || v == nil {
			d.decodeList(l, path, dst)
			return
		}
	}
	d.fail(path, "expected %s, got %s", expected(t), typeName(v))
}

// integral accepts an integer, or a float with an exact integer value.
func integral(v any) (int64, bool) {
	switch n := v.(type) {
	case int64:
		return n, true
	case float64:
		if n == math.Trunc(n) && math.Abs(n) < 1<<53 {
			return int64(n), true
		}
	}
	return 0, false
}

func number(v any) (float64, bool) {
	switch n := v.(type) {
	case int64:
		return float64(n), true
	case float64:
		return n, true
	}
	return 0, false
}

func (d *dec) decodeList(l []any, path string, dst reflect.Value) {
	if len(l) == 0 {
		return
	}
	out := reflect.MakeSlice(dst.Type(), len(l), len(l))
	for i, e := range l {
		epath := fmt.Sprintf("%s[%d]", path, i)
		if e == nil {
			d.fail(epath, "expected %s, got null", expected(dst.Type().Elem()))
		}
		d.decode(e, epath, out.Index(i))
	}
	dst.Set(out)
}

// decodeStruct rejects unknown keys (the smallest first, so the error is
// deterministic), then decodes the present fields in schema order.
func (d *dec) decodeStruct(v any, path string, dst reflect.Value) {
	m, ok := v.(map[string]any)
	if !ok {
		d.fail(path, "expected a mapping, got %s", typeName(v))
		return
	}
	sch := schemas[dst.Type()]
	unknown := ""
	for k := range m {
		if !contains(sch.keys, k) && (unknown == "" || k < unknown) {
			unknown = k
		}
	}
	if unknown != "" {
		d.fail(joinPath(path, unknown), "unknown field (valid fields: %v)", sch.keys)
		return
	}
	for _, f := range sch.fields {
		if fv, present := m[f.key]; present {
			d.decode(fv, joinPath(path, f.key), dst.Field(f.index))
		}
	}
}
