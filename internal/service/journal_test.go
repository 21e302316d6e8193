package service

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"leakyway/internal/iofault"
)

// testRotateBytes is the journal tests' rotation threshold, the daemon's
// default.
const testRotateBytes = 4 << 20

// openTestJournal builds a journal at path over fsys with no prior state.
func openTestJournal(t *testing.T, fsys iofault.FS, path string, rotateBytes int64) *Journal {
	t.Helper()
	j, err := rewriteJournal(fsys, path, nil, rotateBytes)
	if err != nil {
		t.Fatalf("rewriteJournal: %v", err)
	}
	return j
}

func acceptEntry(id int) journalEntry {
	sub := Submission{Template: tmplFor("jt"), Seed: int64(id)}
	return journalEntry{Op: opAccept, ID: idOf(id), Key: storeKey(id), Sub: &sub}
}

func idOf(id int) string { return "j-" + strings.Repeat("0", 5) + string(rune('0'+id%10)) }

// TestJournalReplayTornFinalRecord is the torn-write-tail recovery case:
// the process died mid-append, leaving a truncated final line. Replay
// must return every complete entry and drop only the torn tail.
func TestJournalReplayTornFinalRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j := openTestJournal(t, iofault.OS(), path, testRotateBytes)
	for i := 1; i <= 3; i++ {
		if err := j.Append(acceptEntry(i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	j.Close()

	// Tear the tail: append half of a fourth record, no newline.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"accept","id":"j-0000`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	entries, err := replayJournal(iofault.OS(), path)
	if err != nil {
		t.Fatalf("replay of torn tail must succeed: %v", err)
	}
	if len(entries) != 3 {
		t.Fatalf("replayed %d entries, want the 3 complete ones", len(entries))
	}
	for i, e := range entries {
		if e.Key != storeKey(i+1) {
			t.Fatalf("entry %d key %s, want %s", i, e.Key, storeKey(i+1))
		}
	}
}

func TestJournalReplayRejectsMidFileGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	data := `{"op":"accept","id":"j-000001","key":"k"}` + "\n" +
		"@@@ not json @@@\n" +
		`{"op":"done","key":"k"}` + "\n"
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := replayJournal(iofault.OS(), path); err == nil {
		t.Fatalf("garbage before the end of the file must fail replay")
	}
}

// TestJournalFailedFsyncDropsEntry checks that an append is all or
// nothing: one failed fsync fails Append (it is not retried: after a
// failed fsync the kernel may have dropped the unwritten pages, so a
// later success proves nothing), the refused entry is truncated away so
// it never replays as a ghost job, and the next append succeeds.
func TestJournalFailedFsyncDropsEntry(t *testing.T) {
	inj := iofault.NewInjector(iofault.OS(), 1,
		iofault.FailFirst("journal.jsonl", iofault.OpSync, 1, iofault.ErrIO))
	inj.SetActive(false)
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j := openTestJournal(t, inj, path, testRotateBytes)
	if err := j.Append(acceptEntry(1)); err != nil {
		t.Fatalf("clean append: %v", err)
	}
	inj.SetActive(true)
	if err := j.Append(acceptEntry(2)); err == nil {
		t.Fatalf("append whose fsync failed must fail")
	}
	if err := j.Append(acceptEntry(3)); err != nil {
		t.Fatalf("append after one failed fsync: %v", err)
	}
	j.Close()
	entries, err := replayJournal(iofault.OS(), path)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if len(entries) != 2 || entries[0].Key != storeKey(1) || entries[1].Key != storeKey(3) {
		t.Fatalf("journal replays %+v, want entries 1 and 3", entries)
	}
}

func TestJournalAppendFailsWhenFsyncStaysDown(t *testing.T) {
	inj := iofault.NewInjector(iofault.OS(), 1, iofault.FailSync("journal", 1, iofault.ErrIO))
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	// rewriteJournal itself fsyncs through writeSynced on a tmp path that
	// contains "journal", so build the journal before arming the fault.
	inj.SetActive(false)
	j := openTestJournal(t, inj, path, testRotateBytes)
	inj.SetActive(true)

	if err := j.Append(acceptEntry(1)); err == nil {
		t.Fatalf("append with a dead fsync must fail")
	}
	// The disk heals: the journal keeps working on the same handle.
	inj.SetActive(false)
	if err := j.Append(acceptEntry(2)); err != nil {
		t.Fatalf("append after fault cleared: %v", err)
	}
	j.Close()
	entries, err := replayJournal(iofault.OS(), path)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	// Entry 1's fsync failed, so its line was truncated away; only the
	// entry appended after the disk healed replays.
	if len(entries) != 1 || entries[0].Key != storeKey(2) {
		t.Fatalf("replayed %+v, want entry 2 alone", entries)
	}
}

func TestJournalTornAppendRepaired(t *testing.T) {
	inj := iofault.NewInjector(iofault.OS(), 3, iofault.TornWrite("journal.jsonl", 1, iofault.ErrIO))
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	inj.SetActive(false)
	j := openTestJournal(t, inj, path, testRotateBytes)
	if err := j.Append(acceptEntry(1)); err != nil {
		t.Fatalf("clean append: %v", err)
	}
	inj.SetActive(true)
	if err := j.Append(acceptEntry(2)); err == nil {
		t.Fatalf("torn append must fail")
	}
	inj.SetActive(false)
	// The torn bytes were truncated away, so this lands on a clean line.
	if err := j.Append(acceptEntry(3)); err != nil {
		t.Fatalf("append after torn-tail repair: %v", err)
	}
	j.Close()
	entries, err := replayJournal(iofault.OS(), path)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if len(entries) != 2 || entries[0].Key != storeKey(1) || entries[1].Key != storeKey(3) {
		t.Fatalf("repaired journal replays %+v, want entries 1 and 3", entries)
	}
}

func TestJournalRotationCompactsOnline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j := openTestJournal(t, iofault.OS(), path, 2048)

	for i := 0; !j.NeedsRotation(); i++ {
		if err := j.Append(acceptEntry(i)); err != nil {
			t.Fatalf("append: %v", err)
		}
		if i > 1000 {
			t.Fatalf("journal never hit rotation threshold")
		}
	}
	grown := j.Size()

	// Compact down to two live entries.
	live := []journalEntry{acceptEntry(1), {Op: opDone, Key: storeKey(1)}}
	if err := j.Rotate(live); err != nil {
		t.Fatalf("rotate: %v", err)
	}
	if j.Size() >= grown {
		t.Fatalf("rotation did not shrink the journal: %d -> %d", grown, j.Size())
	}
	if j.NeedsRotation() {
		t.Fatalf("fresh segment immediately wants rotation again")
	}
	// Appends continue on the new segment.
	if err := j.Append(acceptEntry(9)); err != nil {
		t.Fatalf("append after rotation: %v", err)
	}
	j.Close()
	entries, err := replayJournal(iofault.OS(), path)
	if err != nil || len(entries) != 3 {
		t.Fatalf("replay after rotation: %d entries, %v", len(entries), err)
	}
}

func TestJournalRotationThrashGuard(t *testing.T) {
	// Live state bigger than rotateBytes: after one compaction the
	// journal is still over the byte threshold, but the 2x-growth guard
	// must keep NeedsRotation false.
	const rotateBytes = 64
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	live := []journalEntry{acceptEntry(1), acceptEntry(2), acceptEntry(3)}
	j, err := rewriteJournal(iofault.OS(), path, live, rotateBytes)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if j.Size() <= rotateBytes {
		t.Fatalf("test premise broken: live state %d fits rotateBytes %d", j.Size(), rotateBytes)
	}
	if j.NeedsRotation() {
		t.Fatalf("rotation requested right after compaction — would thrash")
	}
}

// failOpen fails OpenFile for paths ending in suffix while armed. Suffix
// matching spares the ".tmp" staging file, so the rotation's rename goes
// through and only the reopen of the final path fails.
type failOpen struct {
	suffix string
	armed  bool
}

func (r *failOpen) Name() string { return "fail-open" }

func (r *failOpen) Check(op iofault.Op, _ *rand.Rand) iofault.Fault {
	if r.armed && op.Kind == iofault.OpOpen && strings.HasSuffix(op.Path, r.suffix) {
		return iofault.Fault{Err: iofault.ErrIO}
	}
	return iofault.Fault{}
}

func TestJournalDetachesWhenRotateReopenFails(t *testing.T) {
	rule := &failOpen{suffix: "journal.jsonl"}
	inj := iofault.NewInjector(iofault.OS(), 1, rule)
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j := openTestJournal(t, inj, path, testRotateBytes)
	if err := j.Append(acceptEntry(1)); err != nil {
		t.Fatalf("append: %v", err)
	}

	// The rename succeeds but reopening the fresh segment fails: the old
	// handle now points at an unlinked inode, so the journal must refuse
	// to append through it rather than silently lose entries.
	rule.armed = true
	if err := j.Rotate([]journalEntry{acceptEntry(1)}); err == nil {
		t.Fatalf("rotate with failing reopen must error")
	}
	rule.armed = false
	if err := j.Append(acceptEntry(2)); err == nil {
		t.Fatalf("detached journal accepted an append")
	}

	// The on-disk segment (the rotated one) replays clean.
	entries, err := replayJournal(iofault.OS(), path)
	if err != nil || len(entries) != 1 {
		t.Fatalf("rotated segment replays %d entries, %v; want 1", len(entries), err)
	}
}

// TestJournalCompactionFailsOnDirSyncError checks that a failed sync of
// the data directory after compaction's rename fails the compaction: a
// power loss could undo the rename and, with it, every acknowledged
// append made to the new file. Startup compaction fails New; an online
// rotation detaches the journal.
func TestJournalCompactionFailsOnDirSyncError(t *testing.T) {
	dataDir := t.TempDir()
	_, err := New(Config{
		DataDir:    dataDir,
		Workers:    1,
		QueueCap:   1,
		MaxRetries: -1,
		Runner:     stubRunner(0, nil, nil),
		Logger:     testLogger(t),
		FS:         iofault.NewInjector(iofault.OS(), 1, &opRecorder{failSync: dataDir}),
	})
	if err == nil {
		t.Fatalf("New succeeded although the data directory's sync after startup compaction failed")
	}

	dir := t.TempDir()
	rec := &opRecorder{}
	j := openTestJournal(t, iofault.NewInjector(iofault.OS(), 1, rec), filepath.Join(dir, "journal.jsonl"), testRotateBytes)
	if err := j.Append(acceptEntry(1)); err != nil {
		t.Fatalf("append: %v", err)
	}
	rec.failSync = dir
	if err := j.Rotate([]journalEntry{acceptEntry(1)}); err == nil {
		t.Fatalf("rotate with a failing directory sync must error")
	}
	if err := j.Append(acceptEntry(2)); err == nil {
		t.Fatalf("journal accepted an append after a rotation whose rename is not durable")
	}
}
