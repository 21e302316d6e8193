package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"leakyway/internal/iofault"
	"leakyway/internal/telemetry"
)

// Store is the content-addressed result store. Each entry is a directory
// named by the cache key's hex digest holding the artifacts plus a
// meta.json that records their individual content hashes — so integrity
// is checkable by re-hashing, which startup does after a crash. Writes go
// through a temp directory and a rename, so a torn write can never
// produce an entry that passes verification.
//
// The store is governed, not append-forever: when a byte quota or entry
// cap is configured, publishing a new entry evicts the least-recently-
// accessed unpinned entries until the store fits again. Access recency
// is a logical clock persisted to lru-index.json, so eviction order
// survives restarts; pinned keys (in-flight executions) are never
// evicted, so governance cannot race a running job. All filesystem
// access goes through an iofault.FS, so chaos tests drive the same code
// paths production runs.
type Store struct {
	dir string
	fs  iofault.FS
	opt StoreOptions

	mu      sync.Mutex
	entries map[string]*entryInfo // hex key → live entry
	pins    map[string]int        // hex key → pin count
	clock   int64                 // logical LRU clock; ticks on every access

	// Optional eviction counters, wired by the daemon after New.
	evictions    *telemetry.Counter
	evictedBytes *telemetry.Counter
}

// StoreOptions governs store growth. Zero values mean unlimited.
type StoreOptions struct {
	// QuotaBytes caps the total size of stored artifacts; exceeding it
	// evicts least-recently-accessed unpinned entries.
	QuotaBytes int64
	// MaxEntries caps the entry count the same way.
	MaxEntries int
	// Logger receives eviction and index-persistence logs (default
	// slog.Default()).
	Logger *slog.Logger
	// Evictions and EvictedBytes, when set, count every eviction —
	// including the ones the startup quota enforcement performs.
	Evictions    *telemetry.Counter
	EvictedBytes *telemetry.Counter
}

type entryInfo struct {
	size   int64
	access int64 // clock value of the most recent touch
}

// SweepRemoval records one entry the startup integrity sweep dropped.
type SweepRemoval struct {
	Entry  string
	Reason string
}

// storeMeta is the per-entry manifest.
type storeMeta struct {
	// Key is the full cache key ("sha256:<hex>").
	Key string `json:"key"`
	// Engine records the engine version the entry was simulated with.
	Engine string `json:"engine"`
	// Artifacts maps artifact name → file name and sha256 of its bytes.
	Artifacts map[string]artifactMeta `json:"artifacts"`
	// Assertion summary of the template evaluation.
	AssertFailed int `json:"assert_failed"`
	AssertTotal  int `json:"assert_total"`
}

type artifactMeta struct {
	File   string `json:"file"`
	SHA256 string `json:"sha256"`
}

// artifactFiles maps API artifact names to entry file names and content
// types.
var artifactFiles = map[string]struct{ file, contentType string }{
	"metrics":  {"metrics.json", "application/json"},
	"report":   {"report.txt", "text/plain; charset=utf-8"},
	"trace":    {"trace.json", "application/json"},
	"progress": {"progress.jsonl", "application/x-ndjson"},
}

// indexFile persists the LRU clock. It lives beside the entry
// directories; the sweep skips plain files.
const indexFile = "lru-index.json"

// lruIndex is the on-disk shape of the access-recency index.
type lruIndex struct {
	Clock  int64            `json:"clock"`
	Access map[string]int64 `json:"access"`
}

// OpenStore opens (creating if needed) the store at dir and sweeps it for
// integrity: every entry's artifacts are re-hashed against its manifest,
// and entries that fail — torn writes, torn evictions, bit rot, manual
// tampering — are removed. It returns what it removed so the caller can
// log and count each repair, then rebuilds the in-memory size/LRU index,
// merging persisted access times where present, and immediately enforces
// the quota on whatever survived.
func OpenStore(fsys iofault.FS, dir string, opt StoreOptions) (*Store, []SweepRemoval, error) {
	if opt.Logger == nil {
		opt.Logger = slog.Default()
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		dir:          dir,
		fs:           fsys,
		opt:          opt,
		entries:      map[string]*entryInfo{},
		pins:         map[string]int{},
		evictions:    opt.Evictions,
		evictedBytes: opt.EvictedBytes,
	}
	ents, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("store: %w", err)
	}

	idx := s.loadIndex()
	var removed []SweepRemoval
	for _, e := range ents {
		if !e.IsDir() {
			continue
		}
		path := filepath.Join(dir, e.Name())
		// Leftover temp dirs from a crash mid-Put are never valid entries.
		if strings.HasPrefix(e.Name(), "tmp-") {
			s.fs.RemoveAll(path)
			removed = append(removed, SweepRemoval{Entry: e.Name(), Reason: "leftover temp dir from interrupted write"})
			continue
		}
		size, err := s.verifyEntry(path)
		if err != nil {
			s.fs.RemoveAll(path)
			removed = append(removed, SweepRemoval{Entry: e.Name(), Reason: err.Error()})
			continue
		}
		info := &entryInfo{size: size, access: idx.Access[e.Name()]}
		s.entries[e.Name()] = info
		if info.access > s.clock {
			s.clock = info.access
		}
	}
	if idx.Clock > s.clock {
		s.clock = idx.Clock
	}

	// A quota lowered across restarts (or a sweep that removed the index)
	// must be enforced before the daemon starts admitting work.
	s.mu.Lock()
	s.evictUntilFitsLocked()
	s.saveIndexLocked()
	s.mu.Unlock()
	return s, removed, nil
}

// loadIndex reads the persisted access index; a missing or unparseable
// index degrades to empty (access order restarts from zero).
func (s *Store) loadIndex() lruIndex {
	idx := lruIndex{Access: map[string]int64{}}
	data, err := s.fs.ReadFile(filepath.Join(s.dir, indexFile))
	if err != nil {
		return idx
	}
	if err := json.Unmarshal(data, &idx); err != nil || idx.Access == nil {
		idx = lruIndex{Access: map[string]int64{}}
	}
	return idx
}

// saveIndexLocked persists the access index. Best-effort by design: a
// lost index costs only approximate LRU order after the next restart,
// so failures are logged, never escalated. Caller holds s.mu.
func (s *Store) saveIndexLocked() {
	idx := lruIndex{Clock: s.clock, Access: make(map[string]int64, len(s.entries))}
	for k, info := range s.entries {
		idx.Access[k] = info.access
	}
	data, err := json.Marshal(&idx)
	if err != nil {
		return
	}
	path := filepath.Join(s.dir, indexFile)
	f, err := s.fs.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		s.opt.Logger.Debug("store: LRU index not persisted", "err", err)
		return
	}
	if _, err := f.Write(data); err != nil {
		s.opt.Logger.Debug("store: LRU index not persisted", "err", err)
	}
	f.Close()
}

// verifyEntry re-hashes every artifact in the manifest and returns the
// entry's size (manifest plus artifacts).
func (s *Store) verifyEntry(path string) (int64, error) {
	data, err := s.fs.ReadFile(filepath.Join(path, "meta.json"))
	if err != nil {
		return 0, fmt.Errorf("meta: %w", err)
	}
	var meta storeMeta
	if err := json.Unmarshal(data, &meta); err != nil {
		return 0, fmt.Errorf("meta: %w", err)
	}
	if hexOf(meta.Key) != filepath.Base(path) {
		return 0, fmt.Errorf("entry %s claims key %s", filepath.Base(path), meta.Key)
	}
	size := int64(len(data))
	for name, am := range meta.Artifacts {
		b, err := s.fs.ReadFile(filepath.Join(path, am.File))
		if err != nil {
			return 0, fmt.Errorf("artifact %s: %w", name, err)
		}
		sum := sha256.Sum256(b)
		if hex.EncodeToString(sum[:]) != am.SHA256 {
			return 0, fmt.Errorf("artifact %s: digest mismatch", name)
		}
		size += int64(len(b))
	}
	return size, nil
}

// hexOf strips the algorithm prefix from a cache key.
func hexOf(key string) string { return strings.TrimPrefix(key, "sha256:") }

func (s *Store) entryDir(key string) string { return filepath.Join(s.dir, hexOf(key)) }

// Pin protects key from eviction (in-flight executions). Pins are
// counted, so concurrent pinners compose; Unpin releases one.
func (s *Store) Pin(key string) {
	s.mu.Lock()
	s.pins[hexOf(key)]++
	s.mu.Unlock()
}

// Unpin releases one pin on key.
func (s *Store) Unpin(key string) {
	s.mu.Lock()
	h := hexOf(key)
	if s.pins[h]--; s.pins[h] <= 0 {
		delete(s.pins, h)
	}
	s.mu.Unlock()
}

// Has reports whether an intact entry exists for key, and counts as an
// access for LRU purposes. It trusts the in-memory index, which the
// startup sweep built and Put/evict maintain; no per-call disk I/O.
func (s *Store) Has(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	info := s.entries[hexOf(key)]
	if info == nil {
		return false
	}
	s.clock++
	info.access = s.clock
	return true
}

// touch marks key accessed without reporting existence.
func (s *Store) touch(key string) {
	s.mu.Lock()
	if info := s.entries[hexOf(key)]; info != nil {
		s.clock++
		info.access = s.clock
	}
	s.mu.Unlock()
}

// SizeBytes returns the total bytes of live entries.
func (s *Store) SizeBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int64
	for _, info := range s.entries {
		n += info.size
	}
	return n
}

// Len returns the live entry count.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Meta reads an entry's manifest.
func (s *Store) Meta(key string) (*storeMeta, error) {
	s.touch(key)
	data, err := s.fs.ReadFile(filepath.Join(s.entryDir(key), "meta.json"))
	if err != nil {
		return nil, err
	}
	var meta storeMeta
	if err := json.Unmarshal(data, &meta); err != nil {
		return nil, err
	}
	return &meta, nil
}

// Artifact reads one artifact's bytes by API name ("metrics", "report",
// "trace", "progress").
func (s *Store) Artifact(key, name string) ([]byte, error) {
	af, ok := artifactFiles[name]
	if !ok {
		return nil, fmt.Errorf("store: unknown artifact %q", name)
	}
	s.touch(key)
	return s.fs.ReadFile(filepath.Join(s.entryDir(key), af.file))
}

// Put writes a completed result as the entry for key: artifacts and
// manifest land in a temp directory, every file and then the directory
// are fsynced, and a rename publishes the entry atomically. The store
// directory is fsynced after the rename, so the entry is durable before
// the caller journals the job done. The caller guarantees that no other
// Put of key runs at the same time and that key has no entry yet (the
// daemon runs one execution per key). Publishing then evicts as needed to
// bring the store back under its quota.
func (s *Store) Put(key, engine string, res *Result) error {
	artifacts := map[string][]byte{
		"metrics": res.Metrics,
		"report":  res.Report,
	}
	if res.Trace != nil {
		artifacts["trace"] = res.Trace
	}
	if len(res.Progress) > 0 {
		artifacts["progress"] = res.Progress
	}
	meta := storeMeta{
		Key:          key,
		Engine:       engine,
		Artifacts:    map[string]artifactMeta{},
		AssertFailed: res.AssertFailed,
		AssertTotal:  res.AssertTotal,
	}
	tmp, err := s.fs.MkdirTemp(s.dir, "tmp-")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer s.fs.RemoveAll(tmp)
	var size int64
	for name, data := range artifacts {
		af := artifactFiles[name]
		if err := writeSynced(s.fs, filepath.Join(tmp, af.file), data); err != nil {
			return fmt.Errorf("store: %s: %w", name, err)
		}
		sum := sha256.Sum256(data)
		meta.Artifacts[name] = artifactMeta{File: af.file, SHA256: hex.EncodeToString(sum[:])}
		size += int64(len(data))
	}
	mb, err := json.MarshalIndent(&meta, "", "  ")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := writeSynced(s.fs, filepath.Join(tmp, "meta.json"), mb); err != nil {
		return fmt.Errorf("store: meta: %w", err)
	}
	size += int64(len(mb))
	if err := syncDir(s.fs, tmp); err != nil {
		return fmt.Errorf("store: entry sync: %w", err)
	}
	dst := s.entryDir(key)
	if err := s.fs.Rename(tmp, dst); err != nil {
		return fmt.Errorf("store: publish: %w", err)
	}
	if err := syncDir(s.fs, s.dir); err != nil {
		// Unpublish, so the caller's retry renames into a free slot.
		s.fs.RemoveAll(dst)
		return fmt.Errorf("store: publish sync: %w", err)
	}

	s.mu.Lock()
	s.clock++
	s.entries[hexOf(key)] = &entryInfo{size: size, access: s.clock}
	s.evictUntilFitsLocked()
	s.saveIndexLocked()
	s.mu.Unlock()
	return nil
}

// overLocked reports whether the store exceeds either cap.
func (s *Store) overLocked() bool {
	if s.opt.MaxEntries > 0 && len(s.entries) > s.opt.MaxEntries {
		return true
	}
	if s.opt.QuotaBytes > 0 {
		var n int64
		for _, info := range s.entries {
			n += info.size
		}
		return n > s.opt.QuotaBytes
	}
	return false
}

// evictUntilFitsLocked removes least-recently-accessed unpinned entries
// until the store fits its caps. A removal error still retires the
// entry from the index — a half-deleted directory is unusable either
// way, and the next startup sweep clears the wreckage. Caller holds
// s.mu.
func (s *Store) evictUntilFitsLocked() {
	for s.overLocked() {
		victim := ""
		var oldest int64
		for k, info := range s.entries {
			if s.pins[k] > 0 {
				continue
			}
			if victim == "" || info.access < oldest {
				victim, oldest = k, info.access
			}
		}
		if victim == "" {
			s.opt.Logger.Warn("store over quota but every entry is pinned; eviction deferred",
				"entries", len(s.entries))
			return
		}
		info := s.entries[victim]
		delete(s.entries, victim)
		err := s.fs.RemoveAll(filepath.Join(s.dir, victim))
		if s.evictions != nil {
			s.evictions.Inc()
			s.evictedBytes.Add(info.size)
		}
		if err != nil {
			s.opt.Logger.Warn("store eviction left a partial entry; startup sweep will finish it",
				"entry", victim, "err", err)
		} else {
			s.opt.Logger.Info("store evicted least-recently-used entry",
				"entry", shortKey(victim), "bytes", info.size)
		}
	}
}

// Close persists the LRU index so access recency survives a clean
// shutdown.
func (s *Store) Close() {
	s.mu.Lock()
	s.saveIndexLocked()
	s.mu.Unlock()
}

// writeSynced writes data and fsyncs before closing, so a rename cannot
// publish a file the kernel has not persisted.
func writeSynced(fsys iofault.FS, path string, data []byte) error {
	f, err := fsys.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
