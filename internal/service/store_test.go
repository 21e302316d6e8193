package service

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"leakyway/internal/iofault"
)

// storeKey fabricates a well-formed cache key from a small integer.
func storeKey(i int) string {
	return fmt.Sprintf("sha256:%064x", i)
}

// putPayload stores an entry for key whose metrics artifact is n bytes,
// so entry sizes are controllable to within the small meta.json overhead.
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

// openTestStore opens a store over the real filesystem.
func openTestStore(t *testing.T, dir string, opt StoreOptions) (*Store, []SweepRemoval) {
	t.Helper()
	if opt.Logger == nil {
		opt.Logger = testLogger(t)
	}
	s, removed, err := OpenStore(iofault.OS(), dir, opt)
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

func TestStoreLRUOrderSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s, _ := openTestStore(t, dir, StoreOptions{})
	for i := 1; i <= 3; i++ {
		putPayload(t, s, storeKey(i), 64)
	}
	// Recency: 2, 3, 1 from oldest to newest.
	s.Has(storeKey(3))
	s.Has(storeKey(1))
	s.Close() // persists lru-index.json

	// Reopen with a cap of 2: the persisted order must make 2 the victim.
	s2, removed := openTestStore(t, dir, StoreOptions{MaxEntries: 2})
	if len(removed) != 0 {
		t.Fatalf("sweep removed intact entries: %v", removed)
	}
	if s2.Has(storeKey(2)) {
		t.Fatalf("persisted LRU order lost: entry 2 survived")
	}
	if !s2.Has(storeKey(1)) || !s2.Has(storeKey(3)) {
		t.Fatalf("recently-used entries evicted on reopen")
	}
}

func TestStoreSweepRepairsTornEviction(t *testing.T) {
	dir := t.TempDir()
	// An eviction interrupted by an I/O failure (or SIGKILL) leaves a
	// half-deleted entry directory.
	inj := iofault.NewInjector(iofault.OS(), 1, iofault.BrokenRemove(hexOf(storeKey(1)), iofault.ErrIO))
	s, _, err := OpenStore(inj, dir, StoreOptions{MaxEntries: 1, Logger: testLogger(t)})
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	putPayload(t, s, storeKey(1), 64)
	putPayload(t, s, storeKey(2), 64) // evicts 1; RemoveAll tears

	if s.Has(storeKey(1)) {
		t.Fatalf("torn-evicted entry still indexed")
	}
	// The wreckage is on disk: reopening must sweep it away.
	s2, removed := openTestStore(t, dir, StoreOptions{})
	found := false
	for _, r := range removed {
		if r.Entry == hexOf(storeKey(1)) {
			found = true
		}
	}
	if !found {
		t.Fatalf("sweep did not remove torn eviction wreckage (removed %v)", removed)
	}
	if s2.Has(storeKey(1)) {
		t.Fatalf("swept entry reported live")
	}
	if !s2.Has(storeKey(2)) {
		t.Fatalf("intact entry lost in sweep")
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
	if fi := filepath.Join(s.dir, hexOf(storeKey(1))); dirExists(t, fi) {
		t.Fatalf("evicted entry directory still on disk")
	}
}

func dirExists(t *testing.T, path string) bool {
	t.Helper()
	_, err := iofault.OS().ReadDir(path)
	return err == nil
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

// TestStorePutPublishesDurably checks the order of a miss's durable
// writes: the entry's temp directory is synced before the rename that
// publishes it, and the store directory after that rename and before the
// worker journals the job done. Without the store-directory sync a power
// loss could keep the done record and lose the entry it names.
func TestStorePutPublishesDurably(t *testing.T) {
	rec := &opRecorder{}
	dataDir := t.TempDir()
	s := newTestServer(t, func(c *Config) {
		c.DataDir = dataDir
		c.FS = iofault.NewInjector(iofault.OS(), 1, rec)
	})
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
	// at returns the index of the first op from index from on that has
	// the kind and satisfies path, or -1.
	at := func(from int, kind iofault.OpKind, path func(string) bool) int {
		for i := from; i < len(rec.ops); i++ {
			if rec.ops[i].Kind == kind && path(rec.ops[i].Path) {
				return i
			}
		}
		return -1
	}
	is := func(want string) func(string) bool { return func(p string) bool { return p == want } }

	publish := at(0, iofault.OpRename, is(filepath.Join(storeDir, hexOf(j.Key))))
	if publish < 0 {
		t.Fatalf("no rename published the entry for %s", j.Key)
	}
	tmpSync := at(0, iofault.OpSync, func(p string) bool {
		return filepath.Dir(p) == storeDir && strings.HasPrefix(filepath.Base(p), "tmp-")
	})
	if tmpSync < 0 || tmpSync > publish {
		t.Fatalf("temp entry directory synced at op %d, want before the publishing rename (op %d)", tmpSync, publish)
	}
	done := at(publish, iofault.OpWrite, is(journal))
	if done < 0 {
		t.Fatalf("no journal append after the publishing rename (op %d)", publish)
	}
	if dirSync := at(publish, iofault.OpSync, is(storeDir)); dirSync < 0 || dirSync > done {
		t.Fatalf("store directory synced at op %d, want between the publishing rename (op %d) and the done append (op %d)", dirSync, publish, done)
	}
}

// TestStorePutFailsOnPublishSyncError checks that a failed sync of the
// store directory fails Put, so the worker never journals the job done,
// and unpublishes the entry, so the retry after the disk heals succeeds.
func TestStorePutFailsOnPublishSyncError(t *testing.T) {
	dir := t.TempDir()
	inj := iofault.NewInjector(iofault.OS(), 1, &opRecorder{failSync: dir})
	s, _, err := OpenStore(inj, dir, StoreOptions{Logger: testLogger(t)})
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	key := storeKey(1)
	res := &Result{Report: []byte("report\n"), Metrics: []byte("{}\n")}
	if err := s.Put(key, "test-engine", res); err == nil || !strings.Contains(err.Error(), "publish sync") {
		t.Fatalf("Put with a failing store-directory sync returned %v, want a publish sync error", err)
	}
	if s.Has(key) || dirExists(t, filepath.Join(dir, hexOf(key))) {
		t.Fatalf("failed publish left the entry in place")
	}
	if err := s.Put(key, "test-engine", res); err != nil {
		t.Fatalf("retry after the fault: %v", err)
	}
	if !s.Has(key) {
		t.Fatalf("retry did not publish the entry")
	}
}
