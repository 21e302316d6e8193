package scenario

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func write(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestParseJSON: the same schema loads from JSON, producing a Spec deeply
// equal to its YAML rendering.
func TestParseJSON(t *testing.T) {
	jsonDoc := `{
  "id": "demo",
  "title": "Demo scenario",
  "kind": "sweep",
  "channel": {"noise_period": 0},
  "sweep": {
    "bits": 10,
    "channels": [{"channel": "ntpntp", "intervals": [2000, 4000]}]
  },
  "assert": [{"metric": "skylake/ntpntp_peak_kbps", "op": "gt", "value": 0}]
}`
	fromJSON, err := Parse([]byte(jsonDoc), "demo.json")
	if err != nil {
		t.Fatal(err)
	}
	fromYAML, err := Parse(Marshal(fromJSON), "demo.yaml")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromJSON, fromYAML) {
		t.Fatalf("JSON and YAML loads differ:\njson: %#v\nyaml: %#v", fromJSON, fromYAML)
	}
	if fromJSON.Channel == nil || fromJSON.Channel.NoisePeriod == nil || *fromJSON.Channel.NoisePeriod != 0 {
		t.Fatalf("explicit noise_period: 0 lost: %#v", fromJSON.Channel)
	}
}

func TestParseJSONErrors(t *testing.T) {
	for _, tc := range []struct{ name, doc, want string }{
		{"syntax", `{"id":`, "demo.json"},
		{"trailing data", `{"id": "x"} {"id": "y"}`, "trailing data"},
		{"unknown field", `{"id": "x", "title": "T", "kind": "pipeline", "pipeline": {"message": "1"}, "bogus": 1}`, "bogus: unknown field"},
		{"empty channel section", `{"id": "x", "title": "T", "kind": "pipeline", "pipeline": {"message": "1"}, "channel": {}}`, "channel: empty section"},
		{"overflowing number", `{"id": "x", "title": "T", "kind": "pipeline", "pipeline": {"message": "1"}, "assert": [{"metric": "a", "op": "lt", "value": 1e999}]}`, "assert[0].value: number out of range"},
		{"empty transport channel", `{"id": "x", "title": "T", "kind": "faults", "transport": {"channel": {}}}`, "transport.channel: empty section"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec, err := Parse([]byte(tc.doc), "demo.json")
			if err == nil {
				t.Fatalf("accepted %q", tc.doc)
			}
			if spec != nil {
				t.Fatal("error with non-nil spec")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error lacks %q: %v", tc.want, err)
			}
		})
	}
}

// TestLoadPath covers the directory pack loader: sorted order, extension
// filtering, duplicate-ID rejection and the empty-directory error.
func TestLoadPath(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "b.yaml", "id: bb\ntitle: B\nkind: pipeline\npipeline:\n  message: \"1\"\n")
	write(t, dir, "a.yml", "id: aa\ntitle: A\nkind: pipeline\npipeline:\n  message: \"0\"\n")
	write(t, dir, "c.json", `{"id": "cc", "title": "C", "kind": "pipeline", "pipeline": {"message": "1"}}`)
	write(t, dir, "ignored.txt", "not a template")
	write(t, dir, "README.md", "# docs")

	specs, err := LoadPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, s := range specs {
		ids = append(ids, s.ID)
	}
	if want := []string{"aa", "bb", "cc"}; !reflect.DeepEqual(ids, want) {
		t.Fatalf("loaded %v, want %v (sorted by file name)", ids, want)
	}

	// A single file loads directly.
	one, err := LoadPath(filepath.Join(dir, "b.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 1 || one[0].ID != "bb" {
		t.Fatalf("single-file load: %v", one)
	}
}

func TestLoadPathDuplicateID(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "one.yaml", "id: same\ntitle: A\nkind: pipeline\npipeline:\n  message: \"1\"\n")
	write(t, dir, "two.yaml", "id: same\ntitle: B\nkind: pipeline\npipeline:\n  message: \"0\"\n")
	_, err := LoadPath(dir)
	if err == nil {
		t.Fatal("duplicate scenario id accepted")
	}
	for _, want := range []string{"duplicate scenario id", "one.yaml", "two.yaml"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error lacks %q: %v", want, err)
		}
	}
}

func TestLoadPathEmptyDir(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "notes.txt", "no templates here")
	if _, err := LoadPath(dir); err == nil || !strings.Contains(err.Error(), "no templates") {
		t.Fatalf("empty directory: %v", err)
	}
}

func TestLoadPathMissing(t *testing.T) {
	if _, err := LoadPath(filepath.Join(t.TempDir(), "nope.yaml")); err == nil {
		t.Fatal("missing path accepted")
	}
}

// TestLoadErrorNamesFile: a malformed template loaded from disk reports
// its own path, not a generic message.
func TestLoadErrorNamesFile(t *testing.T) {
	dir := t.TempDir()
	path := write(t, dir, "broken.yaml", "id: x\ntitle: T\nkind: warp\n")
	_, err := Load(path)
	if err == nil {
		t.Fatal("malformed template accepted")
	}
	if !strings.Contains(err.Error(), path) {
		t.Errorf("error does not name %s: %v", path, err)
	}
}
