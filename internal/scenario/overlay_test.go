package scenario

import (
	"fmt"
	"reflect"
	"testing"

	"leakyway/internal/channel"
	"leakyway/internal/hier"
	"leakyway/internal/platform"
	"leakyway/internal/policy"
)

// distinctValue returns a value of t that differs from base: numbers
// move by an amount that depends on n, so no two fields share a value,
// bools flip and strings get a fresh label.
func distinctValue(t reflect.Type, base reflect.Value, n int) reflect.Value {
	v := reflect.New(t).Elem()
	switch t.Kind() {
	case reflect.Int, reflect.Int64:
		v.SetInt(base.Int() + 1000 + int64(n))
	case reflect.Float64:
		v.SetFloat(base.Float() + 0.25*float64(n+1))
	case reflect.Bool:
		v.SetBool(!base.Bool())
	case reflect.String:
		v.SetString(fmt.Sprintf("custom-%d", n))
	default:
		panic("distinctValue: unsupported kind " + t.Kind().String())
	}
	return v
}

// override is one spec field set to a non-default value, with the
// resolved configuration it must produce.
type override struct {
	name string
	set  func(spec reflect.Value)
	want func(cfg reflect.Value)
}

// overridesOf lists one override per field of the spec struct type st
// over the target configuration base. A field with a same-named,
// same-typed target field must land there; handMapped covers the rest,
// and a field neither covers is an error, so a new spec field cannot go
// unmapped unnoticed.
func overridesOf(t *testing.T, st reflect.Type, base reflect.Value, handMapped map[string]override) []override {
	var out []override
	for i := 0; i < st.NumField(); i++ {
		sf := st.Field(i)
		if o, ok := handMapped[sf.Name]; ok {
			out = append(out, o)
			continue
		}
		tf, ok := base.Type().FieldByName(sf.Name)
		ft := sf.Type
		if ft.Kind() == reflect.Pointer {
			ft = ft.Elem()
		}
		if !ok {
			t.Errorf("%s.%s has no same-named target field in %s and no hand mapping", st.Name(), sf.Name, base.Type())
			continue
		}
		// A pointer to an override section covers the nested target:
		// each of its fields is an override of its own.
		if ft.Kind() == reflect.Struct {
			for _, sub := range overridesOf(t, ft, base.FieldByIndex(tf.Index), nil) {
				out = append(out, override{
					name: sf.Name + "." + sub.name,
					set: func(spec reflect.Value) {
						f := spec.Field(i)
						if f.IsNil() {
							f.Set(reflect.New(ft))
						}
						sub.set(f.Elem())
					},
					want: func(cfg reflect.Value) { sub.want(cfg.FieldByIndex(tf.Index)) },
				})
			}
			continue
		}
		if tf.Type != ft {
			t.Errorf("%s.%s is %s but its target %s.%s is %s", st.Name(), sf.Name, ft, base.Type(), tf.Name, tf.Type)
			continue
		}
		val := distinctValue(ft, base.FieldByIndex(tf.Index), i)
		out = append(out, override{
			name: sf.Name,
			set: func(spec reflect.Value) {
				f := spec.Field(i)
				if f.Kind() == reflect.Pointer {
					p := reflect.New(ft)
					p.Elem().Set(val)
					f.Set(p)
				} else {
					f.Set(val)
				}
			},
			want: func(cfg reflect.Value) { cfg.FieldByIndex(tf.Index).Set(val) },
		})
	}
	return out
}

// checkOverrides resolves the zero spec (every field absent: the result
// must equal base), each override alone (it must land, and every other
// field must inherit the base), and all overrides together.
func checkOverrides[S, C any](t *testing.T, base C, resolve func(*S) C, handMapped map[string]override) {
	t.Helper()
	ovs := overridesOf(t, reflect.TypeOf((*S)(nil)).Elem(), reflect.ValueOf(base), handMapped)
	var zero S
	if got := resolve(&zero); !reflect.DeepEqual(got, base) {
		t.Errorf("%T with no field set changed the base:\ngot  %+v\nwant %+v", zero, got, base)
	}
	var all S
	allWant := base
	for _, o := range ovs {
		var spec S
		want := base
		o.set(reflect.ValueOf(&spec).Elem())
		o.want(reflect.ValueOf(&want).Elem())
		if got := resolve(&spec); !reflect.DeepEqual(got, want) {
			t.Errorf("%T.%s alone:\ngot  %+v\nwant %+v", spec, o.name, got, want)
		}
		o.set(reflect.ValueOf(&all).Elem())
		o.want(reflect.ValueOf(&allWant).Elem())
	}
	if got := resolve(&all); !reflect.DeepEqual(got, allWant) {
		t.Errorf("%T with every field set:\ngot  %+v\nwant %+v", all, got, allWant)
	}
}

// TestOverridesApplyEveryField pins the override semantics of the three
// override sections: every field set to a distinct non-default value
// lands in the resolved configuration, an absent field inherits the base,
// and a spec field with no covered target fails the test.
func TestOverridesApplyEveryField(t *testing.T) {
	cb := channel.DefaultConfig(platform.SkylakeName, 4.0)
	checkOverrides(t, cb, func(c *ChannelSpec) channel.Config { return c.Apply(cb) }, nil)

	tb := channel.DefaultTransportConfig(platform.SkylakeName, 4.0)
	checkOverrides(t, tb, func(c *TransportSpec) channel.TransportConfig { return c.Apply(tb) }, nil)

	sky, _ := platform.ByName("skylake")
	kaby, _ := platform.ByName("kabylake")
	checkOverrides(t, sky, (*PlatformSpec).Config, map[string]override{
		"Base": {
			name: "Base",
			set:  func(s reflect.Value) { s.FieldByName("Base").SetString("kabylake") },
			want: func(c reflect.Value) {
				// Every field the other overrides leave alone comes from
				// the Kaby Lake base.
				kv := reflect.ValueOf(kaby)
				for i := 0; i < c.NumField(); i++ {
					if reflect.DeepEqual(c.Field(i).Interface(), reflect.ValueOf(sky).Field(i).Interface()) {
						c.Field(i).Set(kv.Field(i))
					}
				}
			},
		},
		"LLCPolicy": {
			name: "LLCPolicy",
			set:  func(s reflect.Value) { s.FieldByName("LLCPolicy").SetString("lru") },
			want: func(c reflect.Value) {
				c.FieldByName("LLCPolicy").Set(reflect.ValueOf(policy.Policy(policy.NewLRU())))
			},
		},
		"AdjacentLine": {
			name: "AdjacentLine",
			set: func(s reflect.Value) {
				s.FieldByName("AdjacentLine").Set(reflect.ValueOf(boolptr(!sky.HWPrefetch.AdjacentLine)))
			},
			want: func(c reflect.Value) {
				c.Addr().Interface().(*hier.Config).HWPrefetch.AdjacentLine = !sky.HWPrefetch.AdjacentLine
			},
		},
		"StreamPrefetch": {
			name: "StreamPrefetch",
			set: func(s reflect.Value) {
				s.FieldByName("StreamPrefetch").Set(reflect.ValueOf(boolptr(!sky.HWPrefetch.Stream)))
			},
			want: func(c reflect.Value) {
				c.Addr().Interface().(*hier.Config).HWPrefetch.Stream = !sky.HWPrefetch.Stream
			},
		},
	})

	// A plain geometry field counts only when positive: validation
	// resolves the platform before it rejects a negative value.
	neg := &PlatformSpec{Cores: -1, FreqGHz: -1, L1Sets: -1, L1Ways: -1, L2Sets: -1, L2Ways: -1,
		LLCSlices: -1, LLCSetsPerSlice: -1, LLCWays: -1}
	if got := neg.Config(); !reflect.DeepEqual(got, sky) {
		t.Errorf("negative geometry overrode the base:\ngot  %+v\nwant %+v", got, sky)
	}
}
