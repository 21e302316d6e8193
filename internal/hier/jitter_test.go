package hier_test

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"leakyway/internal/hier"
	"leakyway/internal/platform"
)

// checkJitter draws n values from NewJitter(jit) and from Int63n on twin
// generators and requires the same values and the same number of Int63
// draws consumed.
func checkJitter(t *testing.T, jit int64, n int) {
	t.Helper()
	got, want := rand.New(rand.NewSource(jit)), rand.New(rand.NewSource(jit))
	j := hier.NewJitter(jit)
	for i := 0; i < n; i++ {
		g := j.Draw(got)
		var w int64
		if jit > 0 {
			w = want.Int63n(2*jit+1) - jit
		}
		if g != w {
			t.Fatalf("jit %d draw %d: %d, Int63n gives %d", jit, i, g, w)
		}
	}
	if g, w := got.Int63(), want.Int63(); g != w {
		t.Fatalf("jit %d: generators diverge after %d draws (%d vs %d)", jit, n, g, w)
	}
}

// TestJitterMatchesInt63n pins the division-free sampler to
// rand.Int63n(2*jit+1) - jit draw for draw: every jittered tier of every
// platform's latency model, every jit in 1..1000, amplitudes around 2^31
// and up to the 2^62 limit (where up to half the draws are rejected), and
// the jitter-free tiers, which must draw nothing.
func TestJitterMatchesInt63n(t *testing.T) {
	for _, cfg := range append(platform.All(), hier.Config{Name: "default", Lat: hier.DefaultLatency()}) {
		lat := reflect.ValueOf(cfg.Lat)
		for i := 0; i < lat.NumField(); i++ {
			if name := lat.Type().Field(i).Name; strings.HasSuffix(name, "Jit") {
				jit := lat.Field(i).Int()
				if jit <= 0 {
					t.Errorf("%s %s = %d: no jitter to check", cfg.Name, name, jit)
				}
				checkJitter(t, jit, 20000)
			}
		}
	}
	for jit := int64(1); jit <= 1000; jit++ {
		checkJitter(t, jit, 200)
	}
	wide := []int64{
		1<<31 - 1, 1 << 31, 1<<31 + 1, 3 << 30,
		1 << 61, 1<<61 + 1, 3 << 60, 1<<62 - 12345, 1<<62 - 2, 1<<62 - 1,
	}
	for _, jit := range slices.Concat(wide, []int64{0, -1, -5}) {
		checkJitter(t, jit, 2000)
	}
}
