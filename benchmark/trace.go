package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Spans are recorded only in the benchmark's own code, around each call into
// a layer of the program, and only in traced rounds. They stay in memory and
// are written when the run ends. Every operation is one trace: a root span
// named after the operation kind and its children, one per layer call, all
// timed on the round process's monotonic clock.

// span is one recorded interval. A root span has ID == Trace and no parent.
type span struct {
	Trace  int    `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the round's tracer was created
	End    int64  `json:"end_ns"`
}

// tracer collects a round's spans; a nil tracer records nothing.
type tracer struct {
	base time.Time

	mu    sync.Mutex
	last  int
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) add(s span, start, end time.Time) {
	s.Start, s.End = start.Sub(t.base).Nanoseconds(), end.Sub(t.base).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) newID() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.last++
	return t.last
}

// all returns the recorded spans.
func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans
}

// opTrace is one operation's trace; nil when the round is untraced.
type opTrace struct {
	t     *tracer
	trace int
}

// op starts the trace of one operation.
func (t *tracer) op() *opTrace {
	if t == nil {
		return nil
	}
	return &opTrace{t: t, trace: t.newID()}
}

// span records a child span of the operation.
func (o *opTrace) span(name string, start, end time.Time) {
	if o == nil {
		return
	}
	o.t.add(span{Trace: o.trace, ID: o.t.newID(), Parent: o.trace, Name: name}, start, end)
}

// done records the operation's root span.
func (o *opTrace) done(name string, start, end time.Time) {
	if o == nil {
		return
	}
	o.t.add(span{Trace: o.trace, ID: o.trace, Name: name}, start, end)
}

// opTree groups a trace's root with its children.
type opTree struct {
	root     span
	children []span
}

func treesOf(spans []span) []opTree {
	byTrace := map[int]*opTree{}
	var order []int
	for _, s := range spans {
		tr := byTrace[s.Trace]
		if tr == nil {
			tr = &opTree{}
			byTrace[s.Trace] = tr
			order = append(order, s.Trace)
		}
		if s.ID == s.Trace {
			tr.root = s
		} else {
			tr.children = append(tr.children, s)
		}
	}
	var out []opTree
	for _, id := range order {
		if tr := byTrace[id]; tr.root.Name != "" {
			out = append(out, *tr)
		}
	}
	return out
}

// covered is the length of the union of the children's intervals clipped
// to the root: the part of the root's time some layer call accounts for.
func (tr opTree) covered() int64 {
	iv := make([][2]int64, 0, len(tr.children))
	for _, c := range tr.children {
		iv = append(iv, [2]int64{max(c.Start, tr.root.Start), min(c.End, tr.root.End)})
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE int64
	open := false
	for _, x := range iv {
		if x[1] <= x[0] {
			continue
		}
		if open && x[0] <= curE {
			curE = max(curE, x[1])
			continue
		}
		if open {
			total += curE - curS
		}
		curS, curE, open = x[0], x[1], true
	}
	if open {
		total += curE - curS
	}
	return total
}

// printSelfTimes prints, for each operation kind of a workload's traced
// rounds, the self time of every layer: a child span's self time is its
// duration (children here have no children of their own) and the root's
// self time is whatever no layer call covers. For the median operation it
// also prints the layer split, which is how daemon-mixed's op_p50_s divides
// into submit, queue wait, runner, finish, poll and fetch.
func printSelfTimes(w io.Writer, workload string, rs []roundResult) {
	byKind := map[string][]opTree{}
	var kinds []string
	for _, r := range rs {
		if !r.Traced {
			continue
		}
		for _, tr := range treesOf(r.Spans) {
			if byKind[tr.root.Name] == nil {
				kinds = append(kinds, tr.root.Name)
			}
			byKind[tr.root.Name] = append(byKind[tr.root.Name], tr)
		}
	}
	for _, kind := range kinds {
		trees := byKind[kind]
		var rootTotal, selfRoot int64
		self := map[string]int64{}
		var names []string
		for _, tr := range trees {
			d := tr.root.End - tr.root.Start
			rootTotal += d
			selfRoot += d - tr.covered()
			for _, c := range tr.children {
				if _, seen := self[c.Name]; !seen {
					names = append(names, c.Name)
				}
				self[c.Name] += c.End - c.Start
			}
		}
		if rootTotal == 0 {
			continue
		}
		n := float64(len(trees))
		fmt.Fprintf(w, "# %s self time per %s (%d traced ops, mean %.3f ms):\n", workload, kind, len(trees), float64(rootTotal)/n/1e6)
		fmt.Fprintf(w, "#   %-22s %12s %8s\n", "span", "ms/op", "share")
		for _, name := range names {
			fmt.Fprintf(w, "#   %-22s %12.3f %7.1f%%\n", name, float64(self[name])/n/1e6, 100*float64(self[name])/float64(rootTotal))
		}
		fmt.Fprintf(w, "#   %-22s %12.3f %7.1f%%\n", "(unattributed)", float64(selfRoot)/n/1e6, 100*float64(selfRoot)/float64(rootTotal))

		sort.Slice(trees, func(i, j int) bool {
			return trees[i].root.End-trees[i].root.Start < trees[j].root.End-trees[j].root.Start
		})
		mid := trees[len(trees)/2]
		d := mid.root.End - mid.root.Start
		fmt.Fprintf(w, "#   median %s: %.3f ms =", kind, float64(d)/1e6)
		for _, c := range mid.children {
			fmt.Fprintf(w, " %s %.3f +", c.Name, float64(c.End-c.Start)/1e6)
		}
		fmt.Fprintf(w, " unattributed %.3f (%.1f%% accounted)\n", float64(d-mid.covered())/1e6, 100*float64(mid.covered())/float64(d))
	}
}

// tracedOverhead is the traced round's median primary-operation time over
// the untraced round's, both scaled: the rounds run in different processes
// at different times.
func tracedOverhead(rs []roundResult) float64 {
	var plain, traced []float64
	for _, r := range rs {
		f := r.scale()
		for _, t := range r.primaryTimes() {
			if r.Traced {
				traced = append(traced, t*f)
			} else {
				plain = append(plain, t*f)
			}
		}
	}
	if len(plain) == 0 || len(traced) == 0 {
		return 0
	}
	return median(traced) / median(plain)
}

// writeSpans writes every traced round's spans as JSON lines.
func writeSpans(path string, results map[string][]roundResult) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	type line struct {
		Workload string `json:"workload"`
		Round    int    `json:"round"`
		span
	}
	for _, w := range workloadNames() {
		for _, r := range results[w] {
			for _, s := range r.Spans {
				if err := enc.Encode(line{w, r.Round, s}); err != nil {
					f.Close()
					return err
				}
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
