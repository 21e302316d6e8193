package service

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"leakyway/internal/iofault"
	"leakyway/internal/telemetry"
)

// Store is the content-addressed result store. Each entry is one file,
// <hex>.entry, named by the cache key's hex digest: a one-line JSON
// manifest (key, engine version, assertion summary, and each artifact's
// offset, length and sha256), then the artifact bytes back to back. So
// integrity is checkable by re-hashing, which startup does after a crash.
// Put writes the whole entry to a temp file, fsyncs it and renames it
// into place, and eviction is one Remove: an entry is published and
// retired atomically, so no torn entry can exist.
//
// The store is governed, not append-forever: when a byte quota or entry
// cap is configured, publishing a new entry evicts the least-recently-
// accessed unpinned entries until the store fits again. Access recency
// is an in-memory logical clock that every Put, Has and read ticks; the
// store persists none of it. Across a restart, OpenStore rebuilds it from
// the order the caller passes, which the daemon takes from its journal.
// Pinned keys (in-flight executions) are never evicted, so governance
// cannot race a running job. All filesystem access goes through an
// iofault.FS, so chaos tests drive the same code paths production runs.
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
	// QuotaBytes caps the total size of stored entries; exceeding it
	// evicts least-recently-accessed unpinned entries.
	QuotaBytes int64
	// MaxEntries caps the entry count the same way.
	MaxEntries int
	// Logger receives eviction logs (default slog.Default()).
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

// storeMeta is the per-entry manifest, the entry file's first line.
type storeMeta struct {
	// Key is the full cache key ("sha256:<hex>").
	Key string `json:"key"`
	// Engine records the engine version the entry was simulated with.
	Engine string `json:"engine"`
	// Artifacts maps artifact name → its byte range within the body (the
	// bytes after the manifest line) and the sha256 of those bytes.
	Artifacts map[string]artifactMeta `json:"artifacts"`
	// Assertion summary of the template evaluation.
	AssertFailed int `json:"assert_failed"`
	AssertTotal  int `json:"assert_total"`
}

type artifactMeta struct {
	Offset int64  `json:"offset"`
	Length int64  `json:"length"`
	SHA256 string `json:"sha256"`
}

// artifactTypes maps API artifact names to their content types.
var artifactTypes = map[string]string{
	"metrics":  "application/json",
	"report":   "text/plain; charset=utf-8",
	"trace":    "application/json",
	"progress": "application/x-ndjson",
}

// entrySuffix ends every entry file's name: <hex>.entry.
const entrySuffix = ".entry"

// OpenStore opens (creating if needed) the store at dir and sweeps it for
// integrity: every entry's artifacts are re-hashed against its manifest,
// and entries that fail — bit rot, manual tampering — are removed, as
// are temp files of interrupted writes and any directory (entries of the
// older one-directory-per-entry format). Files it does not know are left
// alone. It returns what it removed so the caller can log and count each
// repair. The survivors start unaccessed; each key in recent, oldest
// first, then counts as one access (the daemon passes the key of every
// journalled submission). Only then is the quota enforced, so a lowered
// cap evicts the entries least recently asked for.
func OpenStore(fsys iofault.FS, dir string, opt StoreOptions, recent []string) (*Store, []SweepRemoval, error) {
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

	var removed []SweepRemoval
	for _, e := range ents {
		name := e.Name()
		path := filepath.Join(dir, name)
		var reason string
		switch {
		case e.IsDir():
			s.fs.RemoveAll(path)
			reason = "directory from an older store format"
		case strings.HasPrefix(name, "tmp-"):
			s.fs.Remove(path)
			reason = "leftover temp file from interrupted write"
		case strings.HasSuffix(name, entrySuffix):
			size, err := s.verifyEntry(path)
			if err == nil {
				s.entries[strings.TrimSuffix(name, entrySuffix)] = &entryInfo{size: size}
				continue
			}
			s.fs.Remove(path)
			reason = err.Error()
		default:
			continue
		}
		removed = append(removed, SweepRemoval{Entry: name, Reason: reason})
	}
	for _, key := range recent {
		s.Has(key)
	}

	// A quota lowered across restarts must be enforced before the daemon
	// starts admitting work.
	s.mu.Lock()
	s.evictUntilFitsLocked()
	s.mu.Unlock()
	return s, removed, nil
}

// verifyEntry re-hashes every artifact in the entry file at path against
// its manifest and returns the file's size.
func (s *Store) verifyEntry(path string) (int64, error) {
	data, err := s.fs.ReadFile(path)
	if err != nil {
		return 0, err
	}
	line, body, _ := bytes.Cut(data, []byte("\n"))
	var meta storeMeta
	if err := json.Unmarshal(line, &meta); err != nil {
		return 0, fmt.Errorf("manifest: %w", err)
	}
	if hexOf(meta.Key)+entrySuffix != filepath.Base(path) {
		return 0, fmt.Errorf("entry %s claims key %s", filepath.Base(path), meta.Key)
	}
	n := int64(len(body))
	for name, am := range meta.Artifacts {
		if am.Offset < 0 || am.Length < 0 || am.Offset > n || am.Length > n-am.Offset {
			return 0, fmt.Errorf("artifact %s: range past the end of the entry", name)
		}
		sum := sha256.Sum256(body[am.Offset : am.Offset+am.Length])
		if hex.EncodeToString(sum[:]) != am.SHA256 {
			return 0, fmt.Errorf("artifact %s: digest mismatch", name)
		}
	}
	return int64(len(data)), nil
}

// hexOf strips the algorithm prefix from a cache key.
func hexOf(key string) string { return strings.TrimPrefix(key, "sha256:") }

// entryPath names key's entry file; key may also be a bare hex digest.
func (s *Store) entryPath(key string) string {
	return filepath.Join(s.dir, hexOf(key)+entrySuffix)
}

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
	meta, _, err := s.read(key, "")
	return meta, err
}

// Artifact reads one artifact's bytes by API name ("metrics", "report",
// "trace", "progress").
func (s *Store) Artifact(key, name string) ([]byte, error) {
	_, data, err := s.read(key, name)
	return data, err
}

// read counts an access to key and reads its manifest line and, when
// name is set, that artifact: only the bytes up to the artifact's end
// are read.
func (s *Store) read(key, name string) (*storeMeta, []byte, error) {
	s.Has(key)
	f, err := s.fs.Open(s.entryPath(key))
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	line, err := br.ReadBytes('\n')
	if err != nil {
		return nil, nil, fmt.Errorf("store: manifest: %w", err)
	}
	var meta storeMeta
	if err := json.Unmarshal(line, &meta); err != nil {
		return nil, nil, fmt.Errorf("store: manifest: %w", err)
	}
	if name == "" {
		return &meta, nil, nil
	}
	am, ok := meta.Artifacts[name]
	if !ok {
		return nil, nil, fmt.Errorf("store: artifact %q not recorded", name)
	}
	if _, err := br.Discard(int(am.Offset)); err != nil {
		return nil, nil, fmt.Errorf("store: %s: %w", name, err)
	}
	data, err := io.ReadAll(io.LimitReader(br, am.Length))
	if err == nil && int64(len(data)) != am.Length {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return nil, nil, fmt.Errorf("store: %s: %w", name, err)
	}
	return &meta, data, nil
}

// Put writes a completed result as the entry for key. The manifest line
// and the artifacts go to a temp file, which is fsynced and renamed into
// place; the store directory is fsynced after the rename, so the entry is
// durable before the caller journals the job done. The caller guarantees
// that no other Put of key runs at the same time and that key has no
// entry yet (the daemon runs one execution per key). Publishing then
// evicts as needed to bring the store back under its quota.
func (s *Store) Put(key, engine string, res *Result) error {
	// A nil artifact was not recorded. Trace goes last: it is the largest
	// artifact and the least read, so reading any other one stops before it.
	parts := []struct {
		name string
		data []byte
	}{{"metrics", res.Metrics}, {"report", res.Report}, {"progress", res.Progress}, {"trace", res.Trace}}
	meta := storeMeta{
		Key:          key,
		Engine:       engine,
		Artifacts:    map[string]artifactMeta{},
		AssertFailed: res.AssertFailed,
		AssertTotal:  res.AssertTotal,
	}
	chunks := make([][]byte, 1, 1+len(parts)) // chunks[0] is the manifest line
	var size int64
	for _, a := range parts {
		if a.data == nil {
			continue
		}
		sum := sha256.Sum256(a.data)
		meta.Artifacts[a.name] = artifactMeta{Offset: size, Length: int64(len(a.data)), SHA256: hex.EncodeToString(sum[:])}
		chunks = append(chunks, a.data)
		size += int64(len(a.data))
	}
	line, err := json.Marshal(&meta)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	chunks[0] = append(line, '\n')
	size += int64(len(chunks[0]))

	tmp := filepath.Join(s.dir, "tmp-"+hexOf(key))
	dst := s.entryPath(key)
	if err := writeSynced(s.fs, tmp, chunks...); err != nil {
		s.fs.Remove(tmp)
		return fmt.Errorf("store: write: %w", err)
	}
	if err := s.fs.Rename(tmp, dst); err != nil {
		s.fs.Remove(tmp)
		return fmt.Errorf("store: publish: %w", err)
	}
	if err := syncDir(s.fs, s.dir); err != nil {
		// Unpublish: the entry is not known durable, so a failed Put
		// leaves none behind.
		s.fs.Remove(dst)
		return fmt.Errorf("store: publish sync: %w", err)
	}

	s.mu.Lock()
	s.clock++
	s.entries[hexOf(key)] = &entryInfo{size: size, access: s.clock}
	s.evictUntilFitsLocked()
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
// entry from the index; the intact file stays on disk until the next
// startup sweep re-indexes it and the quota evicts it again. Caller
// holds s.mu.
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
		err := s.fs.Remove(s.entryPath(victim))
		if s.evictions != nil {
			s.evictions.Inc()
			s.evictedBytes.Add(info.size)
		}
		if err != nil {
			s.opt.Logger.Warn("store eviction failed; the entry stays on disk until a restart",
				"entry", victim, "err", err)
		} else {
			s.opt.Logger.Info("store evicted least-recently-used entry",
				"entry", shortKey(victim), "bytes", info.size)
		}
	}
}

// writeSynced writes chunks back to back and fsyncs before closing, so a
// rename cannot publish a file the kernel has not persisted.
func writeSynced(fsys iofault.FS, path string, chunks ...[]byte) error {
	f, err := fsys.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	for _, c := range chunks {
		if _, err := f.Write(c); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
