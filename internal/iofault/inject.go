package iofault

import (
	"io/fs"
	"math/rand"
	"sync"
	"syscall"
	"time"
)

// Canonical injected errors. They are the real errno values, so code
// under test sees exactly what a full or dying disk would produce.
var (
	// ErrNoSpace is ENOSPC — the disk is full.
	ErrNoSpace error = syscall.ENOSPC
	// ErrIO is EIO — the device failed the operation.
	ErrIO error = syscall.EIO
)

// OpKind names one filesystem operation class a rule can target.
type OpKind string

const (
	OpOpen   OpKind = "open"
	OpWrite  OpKind = "write"
	OpSync   OpKind = "sync"
	OpRename OpKind = "rename"
	OpRemove OpKind = "remove"
	OpMkdir  OpKind = "mkdir"
)

// Op describes one operation about to execute, as rules see it.
type Op struct {
	Kind OpKind
	Path string
	// Bytes is the write length (OpWrite only).
	Bytes int
}

// Fault is a rule's verdict for one operation. The zero value means "no
// fault".
type Fault struct {
	// Err, when non-nil, is returned to the caller instead of (or, for
	// torn writes, after partially) performing the operation.
	Err error
	// TornBytes, for OpWrite with Err set, writes this prefix of the
	// buffer through to the real file before failing — a torn write.
	// Negative means nothing is written.
	TornBytes int
	// Delay stalls the operation before it proceeds (slow I/O). A delay
	// with a nil Err slows the call but lets it succeed.
	Delay time.Duration
}

// Rule models one hostile disk condition. Check is called under the
// injector's lock with the injector's seeded rng, so stateful rules
// (cumulative byte budgets, every-Nth counters) need no locking of
// their own and stay deterministic for a fixed seed and call sequence.
type Rule interface {
	// Name identifies the rule in injection counts.
	Name() string
	// Check returns the fault to inject for op, or the zero Fault.
	Check(op Op, rng *rand.Rand) Fault
}

// Injector wraps an inner FS and consults its rules before every
// operation. Rules are checked in order; the first non-zero fault wins,
// except that delays accumulate across rules.
type Injector struct {
	inner FS

	mu     sync.Mutex
	rng    *rand.Rand
	rules  []Rule
	active bool
	counts map[string]int64
}

// NewInjector builds an injector over inner with the given rules,
// active immediately. All stochastic choices derive from seedv.
func NewInjector(inner FS, seedv int64, rules ...Rule) *Injector {
	return &Injector{
		inner:  inner,
		rng:    rand.New(rand.NewSource(seedv)),
		rules:  rules,
		active: true,
		counts: map[string]int64{},
	}
}

// SetActive switches fault injection on or off at runtime. While
// inactive every call passes straight through — the "fault cleared"
// half of a chaos window.
func (in *Injector) SetActive(v bool) {
	in.mu.Lock()
	in.active = v
	in.mu.Unlock()
}

// Active reports whether injection is enabled.
func (in *Injector) Active() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.active
}

// Injected returns how many faults the named rule has injected.
func (in *Injector) Injected(rule string) int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.counts[rule]
}

// InjectedTotal returns the total injected fault count across rules.
func (in *Injector) InjectedTotal() int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	var n int64
	for _, c := range in.counts {
		n += c
	}
	return n
}

// check runs the rules for op. Counted as injected only when a rule
// returns an error (pure delays slow the call but do not fail it).
func (in *Injector) check(op Op) Fault {
	in.mu.Lock()
	defer in.mu.Unlock()
	if !in.active {
		return Fault{}
	}
	var out Fault
	for _, r := range in.rules {
		f := r.Check(op, in.rng)
		out.Delay += f.Delay
		if f.Err != nil && out.Err == nil {
			out.Err = f.Err
			out.TornBytes = f.TornBytes
			in.counts[r.Name()]++
		}
	}
	return out
}

// apply sleeps out any delay and reports whether an error fault is set.
func (f Fault) apply() bool {
	if f.Delay > 0 {
		time.Sleep(f.Delay)
	}
	return f.Err != nil
}

func (in *Injector) MkdirAll(path string, perm fs.FileMode) error {
	if f := in.check(Op{Kind: OpMkdir, Path: path}); f.apply() {
		return &fs.PathError{Op: "mkdir", Path: path, Err: f.Err}
	}
	return in.inner.MkdirAll(path, perm)
}

func (in *Injector) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	if f := in.check(Op{Kind: OpOpen, Path: name}); f.apply() {
		return nil, &fs.PathError{Op: "open", Path: name, Err: f.Err}
	}
	inner, err := in.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{in: in, f: inner, name: name}, nil
}

func (in *Injector) Open(name string) (File, error) {
	if f := in.check(Op{Kind: OpOpen, Path: name}); f.apply() {
		return nil, &fs.PathError{Op: "open", Path: name, Err: f.Err}
	}
	inner, err := in.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{in: in, f: inner, name: name}, nil
}

func (in *Injector) ReadFile(name string) ([]byte, error) {
	if f := in.check(Op{Kind: OpOpen, Path: name}); f.apply() {
		return nil, &fs.PathError{Op: "read", Path: name, Err: f.Err}
	}
	return in.inner.ReadFile(name)
}

func (in *Injector) ReadDir(name string) ([]fs.DirEntry, error) {
	if f := in.check(Op{Kind: OpOpen, Path: name}); f.apply() {
		return nil, &fs.PathError{Op: "readdir", Path: name, Err: f.Err}
	}
	return in.inner.ReadDir(name)
}

func (in *Injector) Rename(oldpath, newpath string) error {
	if f := in.check(Op{Kind: OpRename, Path: newpath}); f.apply() {
		return &fs.PathError{Op: "rename", Path: newpath, Err: f.Err}
	}
	return in.inner.Rename(oldpath, newpath)
}

func (in *Injector) Remove(name string) error {
	if f := in.check(Op{Kind: OpRemove, Path: name}); f.apply() {
		return &fs.PathError{Op: "remove", Path: name, Err: f.Err}
	}
	return in.inner.Remove(name)
}

func (in *Injector) RemoveAll(path string) error {
	if f := in.check(Op{Kind: OpRemove, Path: path}); f.apply() {
		return &fs.PathError{Op: "removeall", Path: path, Err: f.Err}
	}
	return in.inner.RemoveAll(path)
}

// faultFile routes per-file operations back through the injector.
type faultFile struct {
	in   *Injector
	f    File
	name string
}

func (ff *faultFile) Read(p []byte) (int, error) { return ff.f.Read(p) }

func (ff *faultFile) Write(p []byte) (int, error) {
	f := ff.in.check(Op{Kind: OpWrite, Path: ff.name, Bytes: len(p)})
	if !f.apply() {
		return ff.f.Write(p)
	}
	n := 0
	if f.TornBytes > 0 {
		torn := f.TornBytes
		if torn > len(p) {
			torn = len(p)
		}
		n, _ = ff.f.Write(p[:torn])
	}
	return n, &fs.PathError{Op: "write", Path: ff.name, Err: f.Err}
}

func (ff *faultFile) Sync() error {
	if f := ff.in.check(Op{Kind: OpSync, Path: ff.name}); f.apply() {
		return &fs.PathError{Op: "sync", Path: ff.name, Err: f.Err}
	}
	return ff.f.Sync()
}

func (ff *faultFile) Truncate(size int64) error { return ff.f.Truncate(size) }
func (ff *faultFile) Close() error              { return ff.f.Close() }
func (ff *faultFile) Name() string              { return ff.name }
