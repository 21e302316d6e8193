package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"leakyway/internal/iofault"
	"leakyway/internal/telemetry"
)

// The journal is the daemon's write-ahead log: every accepted job is
// appended and fsynced BEFORE the client sees its 202, and every terminal
// transition is appended when it happens. After a crash, replaying the
// journal reconstructs the job table; accepted jobs without a terminal
// record are re-enqueued, so an acknowledged submission is never lost.
//
// Format: JSONL, one entry per line. A torn final line (the write the
// crash interrupted) is skipped on replay — it can only be an entry whose
// effect was never acknowledged.
//
// The journal is hardened against a sick disk: an append is all or
// nothing — a failed write or fsync is truncated back to the last
// known-good size, so a refused entry never replays and later entries
// never land mid-line — and the file is size-capped: when it outgrows its
// rotation threshold the server rewrites it online to exactly the live
// state, the same compaction a restart performs. A failed fsync is never
// retried: after one, the kernel may already have dropped the dirty pages
// it failed to write, so a retry that succeeds proves nothing.

// Journal ops.
const (
	opAccept = "accept" // job accepted: ID, Key, Sub
	opDone   = "done"   // result stored under Key
	opFail   = "fail"   // execution failed: Err
	opCancel = "cancel" // canceled by the client
	opProbe  = "probe"  // degraded-mode disk probe no-op; ignored on replay
)

type journalEntry struct {
	Op  string      `json:"op"`
	ID  string      `json:"id,omitempty"`
	Key string      `json:"key,omitempty"`
	Err string      `json:"err,omitempty"`
	Sub *Submission `json:"sub,omitempty"`
}

// Journal appends entries to a file, fsyncing each append. Methods are
// not goroutine-safe; the server serializes access under its own lock.
type Journal struct {
	fs   iofault.FS
	f    iofault.File
	path string
	// rotateBytes is the size past which the server should compact the
	// journal online (see NeedsRotation).
	rotateBytes int64
	// size is the known-good byte length of the file: every byte below
	// it is a complete entry line. A failed write leaves bytes above it
	// that repairTornTail truncates away before the next append.
	size int64
	// wedged is set when a torn append could not be truncated away; the
	// next Append retries the repair before writing.
	wedged bool
	// detached is set when a rotation replaced the file on disk but the
	// fresh handle could not be opened: the old handle no longer backs
	// path, so appending through it would silently lose entries. Every
	// append fails until restart reopens the journal.
	detached bool
	// compactedSize is the file size right after the last compaction;
	// rotation only fires once the live state has meaningfully grown
	// past it, so a live state bigger than rotateBytes cannot thrash.
	compactedSize int64

	// fsyncHist, when set, observes each Append's write+fsync latency —
	// the daemon wires it to leakywayd_wal_fsync_seconds. Fsync stalls
	// are the journal's dominant cost, so this is the histogram to watch
	// when admission latency climbs.
	fsyncHist *telemetry.Histogram
	// rotations, when set, counts online compactions.
	rotations *telemetry.Counter
}

// replayJournal reads every parseable entry. Unparseable lines are
// tolerated only at the tail (a torn final write); garbage earlier in the
// file is corruption and fails the replay.
func replayJournal(fsys iofault.FS, path string) ([]journalEntry, error) {
	f, err := fsys.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	defer f.Close()
	var entries []journalEntry
	torn := false
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 16<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var e journalEntry
		if err := json.Unmarshal(line, &e); err != nil {
			torn = true
			continue
		}
		if torn {
			return nil, fmt.Errorf("journal: corrupt entry before end of %s", path)
		}
		entries = append(entries, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	return entries, nil
}

// marshalEntries renders entries as JSONL bytes.
func marshalEntries(entries []journalEntry) ([]byte, error) {
	var buf bytes.Buffer
	for _, e := range entries {
		b, err := json.Marshal(&e)
		if err != nil {
			return nil, err
		}
		buf.Write(b)
		buf.WriteByte('\n')
	}
	return buf.Bytes(), nil
}

// compact writes entries as a fresh journal at path (temp file, fsync,
// rename, directory sync) and opens it for appending, returning the
// handle and its size. renamed reports that the rename replaced path, so
// a handle opened on the old file no longer backs it.
func compact(fsys iofault.FS, path string, entries []journalEntry) (f iofault.File, size int64, renamed bool, err error) {
	data, err := marshalEntries(entries)
	if err != nil {
		return nil, 0, false, err
	}
	tmp := path + ".tmp"
	if err := writeSynced(fsys, tmp, data); err != nil {
		return nil, 0, false, err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		return nil, 0, false, err
	}
	// Until the directory is synced a power loss can undo the rename, and
	// with it every append fsynced to the new file after it.
	if err := syncDir(fsys, filepath.Dir(path)); err != nil {
		return nil, 0, true, fmt.Errorf("sync dir: %w", err)
	}
	f, err = fsys.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, true, fmt.Errorf("reopen: %w", err)
	}
	return f, int64(len(data)), true, nil
}

// rewriteJournal writes a compacted journal and opens it for appending.
// Compaction happens at startup, after replay: the new journal carries
// exactly the live state, so the file cannot grow without bound across
// restarts.
func rewriteJournal(fsys iofault.FS, path string, entries []journalEntry, rotateBytes int64) (*Journal, error) {
	f, size, _, err := compact(fsys, path, entries)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	return &Journal{fs: fsys, f: f, path: path, rotateBytes: rotateBytes, size: size, compactedSize: size}, nil
}

// repairTornTail truncates the file back to the last known-good size
// after a failed append, removing its partial or unsynced line. Until the
// repair succeeds the journal refuses appends — writing after a torn line
// would corrupt the middle of the file, which replay correctly refuses to
// trust.
func (j *Journal) repairTornTail() error {
	if err := j.f.Truncate(j.size); err != nil {
		j.wedged = true
		return fmt.Errorf("journal: torn append not repairable: %w", err)
	}
	j.wedged = false
	return nil
}

// Append writes one entry and fsyncs it. The caller must not consider
// the entry's effect durable (and must not ack a client) until Append
// returns nil; on error the entry is gone from the file, so it does not
// replay either.
func (j *Journal) Append(e journalEntry) error {
	if j.detached {
		return fmt.Errorf("journal: detached after failed rotation; restart required")
	}
	if j.wedged {
		if err := j.repairTornTail(); err != nil {
			return err
		}
	}
	b, err := json.Marshal(&e)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	b = append(b, '\n')
	start := time.Now()
	if _, err = j.f.Write(b); err == nil {
		err = j.f.Sync()
	}
	if err != nil {
		// A failed write may have landed partially, and a failed fsync
		// leaves a line whose durability is unknown: truncate either away
		// so the refused entry never replays and the next append starts
		// on a clean line boundary.
		if rerr := j.repairTornTail(); rerr != nil {
			return fmt.Errorf("journal: %w (and %v)", err, rerr)
		}
		return fmt.Errorf("journal: %w", err)
	}
	j.size += int64(len(b))
	if j.fsyncHist != nil {
		j.fsyncHist.ObserveSince(start)
	}
	return nil
}

// NeedsRotation reports whether the journal has outgrown its rotation
// threshold. The double-size guard keeps a live state that is itself
// larger than rotateBytes from forcing a full rewrite on every append.
func (j *Journal) NeedsRotation() bool {
	if j.rotateBytes <= 0 {
		return false
	}
	return j.size >= j.rotateBytes && j.size >= 2*j.compactedSize
}

// Rotate compacts the journal online: the live entries are written as a
// fresh segment (the same compaction a restart performs) that atomically
// replaces the grown one, and appending continues on the new segment.
// Failure before the rename leaves the old segment and handle fully
// valid; failure after it (directory sync or reopen failed) detaches the
// journal, which refuses further appends rather than losing them to an
// unlinked inode or an undurable rename.
func (j *Journal) Rotate(entries []journalEntry) error {
	nf, size, renamed, err := compact(j.fs, j.path, entries)
	if err != nil {
		if renamed {
			j.detached = true
		}
		return fmt.Errorf("journal: rotate: %w", err)
	}
	j.f.Close()
	j.f = nf
	j.size = size
	j.compactedSize = size
	j.wedged = false
	if j.rotations != nil {
		j.rotations.Inc()
	}
	return nil
}

// Size returns the journal file's current byte length (tests).
func (j *Journal) Size() int64 { return j.size }

// Close closes the journal file.
func (j *Journal) Close() error { return j.f.Close() }

// syncDir fsyncs a directory so a rename within it is durable. A
// filesystem that cannot sync directories (EINVAL, ENOTSUP) counts as
// success.
func syncDir(fsys iofault.FS, dir string) error {
	d, err := fsys.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	d.Close()
	if errors.Is(err, syscall.EINVAL) || errors.Is(err, errors.ErrUnsupported) {
		return nil
	}
	return err
}
