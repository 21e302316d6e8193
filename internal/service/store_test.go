package service

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"leakyway/internal/iofault"
)

// storeKey fabricates a well-formed cache key from a small integer.
func storeKey(i int) string {
	return fmt.Sprintf("sha256:%064x", i)
}

// putPayload stores an entry for key whose metrics artifact is n bytes,
// so entry sizes are controllable to within the small manifest overhead.
func putPayload(t *testing.T, s *Store, key string, n int) {
	t.Helper()
	res := &Result{
		Report:  []byte("report\n"),
		Metrics: bytes.Repeat([]byte("x"), n),
	}
	if err := s.Put(key, "test-engine", res); err != nil {
		t.Fatalf("Put %s: %v", key, err)
	}
}

// openTestStore opens a store over the real filesystem; recent is the
// access order OpenStore rebuilds, oldest first.
func openTestStore(t *testing.T, dir string, opt StoreOptions, recent ...string) (*Store, []SweepRemoval) {
	t.Helper()
	if opt.Logger == nil {
		opt.Logger = testLogger(t)
	}
	s, removed, err := OpenStore(iofault.OS(), dir, opt, recent)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	return s, removed
}

func TestStoreQuotaEvictsLeastRecentlyAccessed(t *testing.T) {
	// Payloads dominate entry size, so ~4400-byte entries against a
	// 10000-byte quota means two fit and a third forces one eviction.
	s, _ := openTestStore(t, t.TempDir(), StoreOptions{QuotaBytes: 10000})
	putPayload(t, s, storeKey(1), 4096)
	putPayload(t, s, storeKey(2), 4096)
	if s.Len() != 2 {
		t.Fatalf("two entries under quota, got %d", s.Len())
	}

	// Touch 1 so 2 is the LRU victim.
	if !s.Has(storeKey(1)) {
		t.Fatalf("entry 1 missing")
	}
	putPayload(t, s, storeKey(3), 4096)

	if s.Has(storeKey(2)) {
		t.Fatalf("LRU entry 2 survived eviction")
	}
	if !s.Has(storeKey(1)) || !s.Has(storeKey(3)) {
		t.Fatalf("recently-used entries evicted")
	}
	if got := s.SizeBytes(); got > 10000 {
		t.Fatalf("store %d bytes, quota 10000", got)
	}
}

func TestStoreMaxEntriesCap(t *testing.T) {
	s, _ := openTestStore(t, t.TempDir(), StoreOptions{MaxEntries: 3})
	for i := 1; i <= 5; i++ {
		putPayload(t, s, storeKey(i), 64)
	}
	if s.Len() != 3 {
		t.Fatalf("entry count %d, cap 3", s.Len())
	}
	// Insertion order doubles as access order here: 1 and 2 are gone.
	for _, i := range []int{3, 4, 5} {
		if !s.Has(storeKey(i)) {
			t.Fatalf("entry %d evicted out of LRU order", i)
		}
	}
}

func TestStorePinBlocksEviction(t *testing.T) {
	s, _ := openTestStore(t, t.TempDir(), StoreOptions{MaxEntries: 2})
	putPayload(t, s, storeKey(1), 64)
	s.Pin(storeKey(1))
	putPayload(t, s, storeKey(2), 64)
	putPayload(t, s, storeKey(3), 64)

	// 1 is the oldest but pinned; 2 must be the victim.
	if !s.Has(storeKey(1)) {
		t.Fatalf("pinned entry evicted")
	}
	if s.Has(storeKey(2)) {
		t.Fatalf("unpinned LRU entry survived")
	}

	// After unpinning, 1 is evictable again. Re-age it below 3.
	s.Unpin(storeKey(1))
	s.Has(storeKey(3))
	putPayload(t, s, storeKey(4), 64)
	if s.Has(storeKey(1)) {
		t.Fatalf("unpinned entry not evicted")
	}
}

func TestStoreAllPinnedDefersEviction(t *testing.T) {
	s, _ := openTestStore(t, t.TempDir(), StoreOptions{MaxEntries: 1})
	putPayload(t, s, storeKey(1), 64)
	s.Pin(storeKey(1))
	s.Pin(storeKey(2))
	putPayload(t, s, storeKey(2), 64)
	// Over cap but both pinned: nothing may be removed.
	if s.Len() != 2 {
		t.Fatalf("pinned entries evicted: %d live", s.Len())
	}
}

func TestStoreSweepRepairsTornEviction(t *testing.T) {
	dir := t.TempDir()
	// An eviction whose Remove fails (an I/O error, or a SIGKILL before
	// it ran) leaves the evicted entry's intact file on disk.
	inj := iofault.NewInjector(iofault.OS(), 1, iofault.BrokenRemove(hexOf(storeKey(1)), iofault.ErrIO))
	s, _, err := OpenStore(inj, dir, StoreOptions{MaxEntries: 1, Logger: testLogger(t)}, nil)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	putPayload(t, s, storeKey(1), 64)
	putPayload(t, s, storeKey(2), 64) // evicts 1; the Remove fails

	if s.Has(storeKey(1)) {
		t.Fatalf("evicted entry still indexed")
	}
	// Reopening finds both files intact: the cap must hold, and what
	// survives must verify. The order is the one a journal would hold.
	s2, removed := openTestStore(t, dir, StoreOptions{MaxEntries: 1}, storeKey(1), storeKey(2))
	if len(removed) != 0 {
		t.Fatalf("sweep removed intact entries: %v", removed)
	}
	if s2.Len() != 1 {
		t.Fatalf("reopened store holds %d entries, cap 1", s2.Len())
	}
	if s2.Has(storeKey(1)) {
		t.Fatalf("evicted entry reported live after reopen")
	}
	if !s2.Has(storeKey(2)) {
		t.Fatalf("most recent entry lost on reopen")
	}
	if _, err := s2.verifyEntry(s2.entryPath(storeKey(2))); err != nil {
		t.Fatalf("surviving entry fails verification: %v", err)
	}
}

func TestStoreEvictedArtifactUnreadable(t *testing.T) {
	s, _ := openTestStore(t, t.TempDir(), StoreOptions{MaxEntries: 1})
	putPayload(t, s, storeKey(1), 64)
	putPayload(t, s, storeKey(2), 64)
	if _, err := s.Artifact(storeKey(1), "metrics"); err == nil {
		t.Fatalf("evicted entry's artifact still readable")
	}
	if _, err := s.Artifact(storeKey(2), "metrics"); err != nil {
		t.Fatalf("live artifact unreadable: %v", err)
	}
	if fileExists(s.entryPath(storeKey(1))) {
		t.Fatalf("evicted entry file still on disk")
	}
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// TestStoreArtifactRoundTrip checks that every artifact reads back
// byte for byte from the one entry file, and that an artifact the result
// did not carry is reported missing.
func TestStoreArtifactRoundTrip(t *testing.T) {
	s, _ := openTestStore(t, t.TempDir(), StoreOptions{})
	res := &Result{
		Metrics:      []byte("{\"m\": 1}\n"),
		Report:       []byte("report\n"),
		Progress:     []byte("{\"done\": 1}\n"),
		Trace:        bytes.Repeat([]byte("t"), 10000),
		AssertFailed: 1,
		AssertTotal:  3,
	}
	key := storeKey(1)
	if err := s.Put(key, "test-engine", res); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string][]byte{"metrics": res.Metrics, "report": res.Report, "progress": res.Progress, "trace": res.Trace} {
		got, err := s.Artifact(key, name)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("artifact %s read back %q (err %v), want %q", name, got, err, want)
		}
	}
	meta, err := s.Meta(key)
	if err != nil || meta.Key != key || meta.Engine != "test-engine" || meta.AssertFailed != 1 || meta.AssertTotal != 3 {
		t.Fatalf("manifest %+v (err %v)", meta, err)
	}

	key2 := storeKey(2)
	if err := s.Put(key2, "test-engine", &Result{Metrics: []byte("{}\n"), Report: []byte("r\n")}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Artifact(key2, "trace"); err == nil {
		t.Fatalf("unrecorded trace artifact read without error")
	}
}

// TestStoreWriteFaultLeavesNoEntry checks that a write failing in the
// middle of an entry publishes nothing, and that the next OpenStore
// removes the temp file the failure left (its cleanup fails here, as
// after a crash mid-write).
func TestStoreWriteFaultLeavesNoEntry(t *testing.T) {
	dir := t.TempDir()
	const budget = 1000 // past the manifest line, inside the metrics
	inj := iofault.NewInjector(iofault.OS(), 1,
		iofault.DiskFull("tmp-", budget),
		iofault.BrokenRemove("tmp-", iofault.ErrIO))
	s, _, err := OpenStore(inj, dir, StoreOptions{Logger: testLogger(t)}, nil)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	key := storeKey(1)
	res := &Result{Report: []byte("report\n"), Metrics: bytes.Repeat([]byte("x"), 4096)}
	if err := s.Put(key, "test-engine", res); err == nil {
		t.Fatalf("Put through a full disk succeeded")
	}
	if s.Has(key) || fileExists(s.entryPath(key)) {
		t.Fatalf("failed write left an entry")
	}
	tmp := "tmp-" + hexOf(key)
	fi, err := os.Stat(filepath.Join(dir, tmp))
	if err != nil || fi.Size() != budget {
		t.Fatalf("torn temp file: %v (err %v), want %d bytes on disk", fi, err, budget)
	}

	s2, removed := openTestStore(t, dir, StoreOptions{})
	if len(removed) != 1 || removed[0].Entry != tmp {
		t.Fatalf("sweep removed %v, want only %s", removed, tmp)
	}
	if fileExists(filepath.Join(dir, tmp)) || s2.Len() != 0 {
		t.Fatalf("temp file survived the sweep (entries %d)", s2.Len())
	}
}

// opRecorder is an iofault.Rule that logs every operation the injector
// sees, in order. It faults only the first sync of exactly failSync, when
// that is set.
type opRecorder struct {
	ops      []iofault.Op
	failSync string
}

func (r *opRecorder) Name() string { return "record" }

func (r *opRecorder) Check(op iofault.Op, _ *rand.Rand) iofault.Fault {
	r.ops = append(r.ops, op)
	if op.Kind == iofault.OpSync && r.failSync != "" && op.Path == r.failSync {
		r.failSync = ""
		return iofault.Fault{Err: iofault.ErrIO}
	}
	return iofault.Fault{}
}

// TestStorePutPublishesDurably pins a miss's durable writes: exactly four
// syncs, in this order: the journal's accept record, the entry's temp
// file, then the rename that publishes it, the store directory, and the
// journal's done record. Without the store-directory sync a power loss
// could keep the done record and lose the entry it names. No directory
// is made after startup.
func TestStorePutPublishesDurably(t *testing.T) {
	rec := &opRecorder{}
	dataDir := t.TempDir()
	s := newTestServer(t, func(c *Config) {
		c.DataDir = dataDir
		c.FS = iofault.NewInjector(iofault.OS(), 1, rec)
	})
	started := len(rec.ops)
	j, err := s.Submit(Submission{Template: tmplFor("durable"), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, s, j.ID, StatusDone)
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}

	storeDir := filepath.Join(dataDir, "store")
	journal := filepath.Join(dataDir, "journal.jsonl")
	var got []string
	for _, op := range rec.ops[started:] {
		switch op.Kind {
		case iofault.OpSync, iofault.OpRename, iofault.OpMkdir:
			got = append(got, string(op.Kind)+" "+op.Path)
		}
	}
	want := []string{
		"sync " + journal,
		"sync " + filepath.Join(storeDir, "tmp-"+hexOf(j.Key)),
		"rename " + filepath.Join(storeDir, hexOf(j.Key)+".entry"),
		"sync " + storeDir,
		"sync " + journal,
	}
	if !slices.Equal(got, want) {
		t.Fatalf("miss made\n  %s\nwant\n  %s", strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}
}

// TestStorePutFailsOnPublishSyncError checks that a failed sync of the
// store directory fails Put, so the worker never journals the job done,
// and unpublishes the entry, so the retry after the disk heals succeeds.
func TestStorePutFailsOnPublishSyncError(t *testing.T) {
	dir := t.TempDir()
	inj := iofault.NewInjector(iofault.OS(), 1, &opRecorder{failSync: dir})
	s, _, err := OpenStore(inj, dir, StoreOptions{Logger: testLogger(t)}, nil)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	key := storeKey(1)
	res := &Result{Report: []byte("report\n"), Metrics: []byte("{}\n")}
	if err := s.Put(key, "test-engine", res); err == nil || !strings.Contains(err.Error(), "publish sync") {
		t.Fatalf("Put with a failing store-directory sync returned %v, want a publish sync error", err)
	}
	if s.Has(key) || fileExists(s.entryPath(key)) {
		t.Fatalf("failed publish left the entry in place")
	}
	if err := s.Put(key, "test-engine", res); err != nil {
		t.Fatalf("retry after the fault: %v", err)
	}
	if !s.Has(key) {
		t.Fatalf("retry did not publish the entry")
	}
}
