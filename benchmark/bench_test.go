package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary serve as the round process: the benchmark
// re-executes os.Executable, which under `go test` is this binary.
func TestMain(m *testing.M) {
	if len(os.Args) == 3 && os.Args[1] == childFlag {
		os.Exit(childMain(os.Args[2], os.Stdout))
	}
	os.Exit(m.Run())
}

// smokeSizes run every workload at its smallest: one round, one measured
// operation, three daemon-mixed jobs and 200 daemon-saturate hits.
var smokeSizes = sizes{Rounds: 1, StreamBits: 100_000, Prime: 2, MinJobs: 3, MinHits: 200}

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

// TestBenchmarkFileMatches checks that BENCHMARK.json lists exactly the
// workloads and metrics the program reports, with the same units.
func TestBenchmarkFileMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, " "), strings.Join(workloadNames(), " "); got != want {
		t.Errorf("BENCHMARK.json workloads %q, program has %q", got, want)
	}
	check := func(kind string, listed []struct{ Name, Unit, Better string }, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program reports %d", kind, len(listed), len(defs))
			return
		}
		for i, d := range defs {
			if l := listed[i]; l.Name != d.name || l.Unit != d.unit || l.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %s %s %s, program %s %s %s", kind, i, l.Name, l.Unit, l.Better, d.name, d.unit, d.better)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd)
	check("per_layer", bf.PerLayer, perLayer)
}

// TestSmoke runs every workload at minimal size and checks that nothing
// fails and that every end-to-end metric is printed with its unit.
func TestSmoke(t *testing.T) {
	if raceEnabled {
		t.Skip("the workloads run the simulator for seconds; too slow under -race")
	}
	if testing.Short() {
		t.Skip("runs every workload")
	}
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	// The benchmark writes under its working directory.
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })

	for _, w := range workloadNames() {
		var out bytes.Buffer
		if err := run([]string{"-workload", w, "-seed", "3", "-seconds", "0.001"}, &out, smokeSizes); err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var rep report
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
			t.Fatalf("%s: last line is not the result: %v", w, err)
		}
		if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d", w, rep.Correct, rep.Failed, rep.Attempted)
		}
		for _, d := range endToEnd {
			mv, ok := rep.Metrics[d.name]
			if !ok || mv.Unit != d.unit || mv.Value <= 0 {
				t.Errorf("%s: metric %s = %+v, want a positive value in %s", w, d.name, mv, d.unit)
			}
			if !strings.Contains(out.String(), w+" "+d.name+" ") {
				t.Errorf("%s: metric %s not printed", w, d.name)
			}
		}
	}
	// Every round removes its data directory.
	left, err := os.ReadDir(filepath.Join(dir, buildDir, "work"))
	if err != nil || len(left) > 0 {
		t.Errorf("work directory after the runs: %d entries left, err %v", len(left), err)
	}
}
