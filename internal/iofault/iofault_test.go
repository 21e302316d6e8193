package iofault

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

// writeVia writes data to path through fsys, returning the write and
// sync errors separately.
func writeVia(t *testing.T, fsys FS, path string, data []byte) (writeErr, syncErr error) {
	t.Helper()
	f, err := fsys.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	defer f.Close()
	_, writeErr = f.Write(data)
	syncErr = f.Sync()
	return writeErr, syncErr
}

func TestOSPassthroughRoundTrip(t *testing.T) {
	fsys := OS()
	dir := t.TempDir()
	sub := filepath.Join(dir, "a", "b")
	if err := fsys.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(sub, "f.txt")
	if w, s := writeVia(t, fsys, path, []byte("hello")); w != nil || s != nil {
		t.Fatalf("write/sync: %v / %v", w, s)
	}
	got, err := fsys.ReadFile(path)
	if err != nil || string(got) != "hello" {
		t.Fatalf("read back: %q, %v", got, err)
	}
	if err := fsys.Rename(path, path+".2"); err != nil {
		t.Fatal(err)
	}
	ents, err := fsys.ReadDir(sub)
	if err != nil || len(ents) != 1 || ents[0].Name() != "f.txt.2" {
		t.Fatalf("readdir: %v, %v", ents, err)
	}
	if err := fsys.RemoveAll(filepath.Join(dir, "a")); err != nil {
		t.Fatal(err)
	}
}

func TestFailSyncEveryN(t *testing.T) {
	inj := NewInjector(OS(), 1, FailSync("", 3, ErrIO))
	dir := t.TempDir()
	var failures int
	for i := 0; i < 9; i++ {
		_, syncErr := writeVia(t, inj, filepath.Join(dir, "f"), []byte("x"))
		if syncErr != nil {
			if !errors.Is(syncErr, syscall.EIO) {
				t.Fatalf("sync error %v, want EIO", syncErr)
			}
			failures++
		}
	}
	if failures != 3 {
		t.Fatalf("%d sync failures over 9 syncs with everyN=3, want 3", failures)
	}
	if got := inj.Injected("fail-sync"); got != 3 {
		t.Fatalf("injected count %d, want 3", got)
	}
}

func TestFailSyncPathFilter(t *testing.T) {
	inj := NewInjector(OS(), 1, FailSync("journal", 1, ErrIO))
	dir := t.TempDir()
	if _, syncErr := writeVia(t, inj, filepath.Join(dir, "journal.jsonl"), []byte("x")); syncErr == nil {
		t.Fatalf("journal sync must fail")
	}
	if _, syncErr := writeVia(t, inj, filepath.Join(dir, "other.txt"), []byte("x")); syncErr != nil {
		t.Fatalf("non-matching path faulted: %v", syncErr)
	}
}

func TestDiskFullTearsBoundaryWrite(t *testing.T) {
	rule := DiskFull("", 10)
	inj := NewInjector(OS(), 1, rule)
	dir := t.TempDir()
	path := filepath.Join(dir, "f")

	// 6 bytes fit; the next 6-byte write crosses the 10-byte budget and
	// must be torn at 4 bytes with ENOSPC.
	f, err := inj.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("aaaaaa")); err != nil {
		t.Fatalf("within budget: %v", err)
	}
	n, err := f.Write([]byte("bbbbbb"))
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("boundary write error %v, want ENOSPC", err)
	}
	if n != 4 {
		t.Fatalf("torn write reported %d bytes, want 4", n)
	}
	f.Close()
	got, _ := os.ReadFile(path)
	if string(got) != "aaaaaabbbb" {
		t.Fatalf("on-disk bytes %q, want the torn prefix", got)
	}

	// Every later write fails without touching the file.
	if w, _ := writeVia(t, inj, filepath.Join(dir, "g"), []byte("c")); !errors.Is(w, syscall.ENOSPC) {
		t.Fatalf("post-full write error %v, want ENOSPC", w)
	}
	// Reset refills the budget — space was freed.
	rule.Reset()
	if w, s := writeVia(t, inj, filepath.Join(dir, "g"), []byte("c")); w != nil || s != nil {
		t.Fatalf("after Reset: %v / %v", w, s)
	}
}

func TestTornWriteIsSeedDeterministic(t *testing.T) {
	run := func(seedv int64) []int {
		inj := NewInjector(OS(), seedv, TornWrite("", 0.5, ErrIO))
		dir := t.TempDir()
		var cuts []int
		for i := 0; i < 20; i++ {
			f, err := inj.OpenFile(filepath.Join(dir, "f"), os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			n, werr := f.Write(make([]byte, 100))
			f.Close()
			if werr != nil {
				cuts = append(cuts, n)
			} else if n != 100 {
				t.Fatalf("clean write wrote %d", n)
			}
		}
		return cuts
	}
	a, b := run(7), run(7)
	if len(a) == 0 || len(a) == 20 {
		t.Fatalf("prob 0.5 over 20 writes tore %d — rng not engaged", len(a))
	}
	if len(a) != len(b) {
		t.Fatalf("same seed, different tear counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different cut points: %v vs %v", a, b)
		}
	}
}

func TestBrokenRemoveFailsRemoveAll(t *testing.T) {
	inj := NewInjector(OS(), 1, BrokenRemove("victim", ErrIO))
	dir := t.TempDir()
	victim := filepath.Join(dir, "victim-entry")
	if err := os.MkdirAll(victim, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a.json", "b.json", "c.json", "d.json"} {
		if err := os.WriteFile(filepath.Join(victim, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	err := inj.RemoveAll(victim)
	if !errors.Is(err, syscall.EIO) {
		t.Fatalf("RemoveAll error %v, want EIO", err)
	}
	if ents, _ := os.ReadDir(victim); len(ents) != 4 {
		t.Fatalf("failed RemoveAll left %d of 4 files; want the tree untouched", len(ents))
	}
	// Unmatched paths remove cleanly.
	if err := inj.RemoveAll(dir); err != nil {
		t.Fatalf("unmatched RemoveAll: %v", err)
	}
}

func TestSetActiveClearsFaults(t *testing.T) {
	inj := NewInjector(OS(), 1, FailSync("", 1, ErrIO))
	dir := t.TempDir()
	if _, syncErr := writeVia(t, inj, filepath.Join(dir, "f"), []byte("x")); syncErr == nil {
		t.Fatalf("active injector must fault")
	}
	inj.SetActive(false)
	if inj.Active() {
		t.Fatalf("Active() true after SetActive(false)")
	}
	if _, syncErr := writeVia(t, inj, filepath.Join(dir, "f"), []byte("x")); syncErr != nil {
		t.Fatalf("inactive injector faulted: %v", syncErr)
	}
	inj.SetActive(true)
	if _, syncErr := writeVia(t, inj, filepath.Join(dir, "f"), []byte("x")); syncErr == nil {
		t.Fatalf("reactivated injector must fault")
	}
	if got := inj.InjectedTotal(); got != 2 {
		t.Fatalf("injected total %d, want 2", got)
	}
}

func TestSlowDelaysWithoutFailing(t *testing.T) {
	inj := NewInjector(OS(), 1, Slow("", 20*time.Millisecond, OpSync))
	dir := t.TempDir()
	start := time.Now()
	w, s := writeVia(t, inj, filepath.Join(dir, "f"), []byte("x"))
	if w != nil || s != nil {
		t.Fatalf("slow I/O must still succeed: %v / %v", w, s)
	}
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Fatalf("sync returned in %v, want >= 20ms stall", d)
	}
	if got := inj.InjectedTotal(); got != 0 {
		t.Fatalf("pure delays counted as injected faults: %d", got)
	}
}
