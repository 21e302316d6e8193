package service

import (
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"leakyway/internal/iofault"
)

// The chaos suite runs real jobs through the production durability paths
// with an iofault.Injector underneath, asserting the daemon's contract
// under a hostile disk: admissions degrade to 503 + Retry-After instead
// of lying, reads and running jobs keep working, recovery is automatic
// once the fault clears, and no corrupt store entry survives a restart.

// waitDegraded polls until the server's degraded state matches want.
func waitDegraded(t *testing.T, s *Server, want bool) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		deg, reason := s.DegradedState()
		if deg == want {
			return reason
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("server never reached degraded=%v", want)
	return ""
}

// submitUnique submits a fresh-keyed job (distinct seed) and returns it.
func submitUnique(t *testing.T, s *Server, seed int64) *Job {
	t.Helper()
	j, err := s.Submit(Submission{Template: tmplFor("chaos"), Seed: seed})
	if err != nil {
		t.Fatalf("submit seed %d: %v", seed, err)
	}
	return j
}

func TestChaosJournalFsyncFailureDegradesAndRecovers(t *testing.T) {
	inj := iofault.NewInjector(iofault.OS(), 1,
		iofault.FailSync("journal.jsonl", 1, iofault.ErrIO))
	inj.SetActive(false) // let New build a clean journal
	s := newTestServer(t, func(c *Config) {
		c.FS = inj
		c.ProbeInterval = 10 * time.Millisecond
	})
	defer s.Drain()

	// A healthy admission first, so reads have something to serve.
	j0 := submitUnique(t, s, 1)
	waitStatus(t, s, j0.ID, StatusDone)

	// The disk turns hostile: the WAL fsync dies, so the admission must
	// fail 503 with a Retry-After hint — never a silent accept.
	inj.SetActive(true)
	_, err := s.Submit(Submission{Template: tmplFor("chaos"), Seed: 2})
	se, ok := err.(*submitError)
	if !ok || se.status != http.StatusServiceUnavailable {
		t.Fatalf("submit under dead fsync: %v, want 503", err)
	}
	if se.retryAfter <= 0 {
		t.Fatalf("degraded 503 missing Retry-After hint")
	}
	waitDegraded(t, s, true)

	// Reads keep working while degraded: healthz reports the state, the
	// finished job's artifacts stay servable.
	c := newTestClient(t, s)
	code, hb, err := c.Healthz()
	if err != nil || code != http.StatusServiceUnavailable {
		t.Fatalf("degraded healthz: %d %v, want status 503", code, err)
	}
	if hb["status"] != "degraded" || hb["reason"] == "" {
		t.Fatalf("degraded healthz body %v", hb)
	}
	if _, err := c.Artifact(j0.ID, "report"); err != nil {
		t.Fatalf("artifact read while degraded: %v", err)
	}

	// Repeated submissions stay rejected and counted while the fault
	// holds — the probe keeps failing through the same WAL path.
	if _, err := s.Submit(Submission{Template: tmplFor("chaos"), Seed: 3}); err == nil {
		t.Fatalf("still-degraded server accepted a job")
	}
	if got := s.met.rejectedDegraded.Value(); got < 2 {
		t.Fatalf("rejected_degraded count %d, want >= 2", got)
	}

	// The fault clears; the probe must notice and resume admissions.
	inj.SetActive(false)
	waitDegraded(t, s, false)
	j2 := submitUnique(t, s, 2)
	waitStatus(t, s, j2.ID, StatusDone)
	if got := s.met.degradedEntered.Value(); got != 1 {
		t.Fatalf("degraded episodes %d, want exactly 1", got)
	}
}

func TestChaosDiskFullMidArtifactWriteRetriesToCompletion(t *testing.T) {
	// The store's disk fills mid-artifact-write (torn at the budget
	// boundary), then space frees up. The job's publish fails, the server
	// degrades, and the bounded retry finishes the job once the probe
	// clears the fault.
	rule := iofault.DiskFull("store", 64)
	inj := iofault.NewInjector(iofault.OS(), 1, rule)
	inj.SetActive(false)
	s := newTestServer(t, func(c *Config) {
		c.FS = inj
		c.MaxRetries = 8
		c.RetryBase = 2 * time.Millisecond
		c.ProbeInterval = 5 * time.Millisecond
	})
	defer s.Drain()

	inj.SetActive(true)
	j := submitUnique(t, s, 7)
	waitDegraded(t, s, true)
	if inj.Injected("disk-full") == 0 {
		t.Fatalf("disk-full rule never fired")
	}

	// Space frees up: probe exits degraded mode, the retry publishes.
	rule.Reset()
	inj.SetActive(false)
	waitDegraded(t, s, false)
	waitStatus(t, s, j.ID, StatusDone)

	// The published entry is intact: artifacts read back and survive a
	// fresh integrity sweep.
	if _, err := s.store.Artifact(j.Key, "metrics"); err != nil {
		t.Fatalf("artifact after recovery: %v", err)
	}
	if _, err := s.store.verifyEntry(s.store.entryPath(j.Key)); err != nil {
		t.Fatalf("recovered entry fails verification: %v", err)
	}
}

func TestChaosKillDuringEvictionSweptOnRestart(t *testing.T) {
	dir := t.TempDir()
	// Evictions fail with EIO, so the evicted entry's file stays on disk
	// after the index drops it; then the process dies.
	inj := iofault.NewInjector(iofault.OS(), 1,
		iofault.BrokenRemove("store/", iofault.ErrIO))
	s := newTestServer(t, func(c *Config) {
		c.DataDir = dir
		c.FS = inj
		c.StoreMaxEntries = 2
		c.Stall = 50 * time.Millisecond
	})

	var jobs []*Job
	for i := 0; i < 3; i++ {
		j := submitUnique(t, s, int64(100+i))
		waitStatus(t, s, j.ID, StatusDone)
		jobs = append(jobs, j)
	}
	// Third publish evicted the first entry, whose removal failed.
	if s.store.Len() != 2 {
		t.Fatalf("store holds %d entries, cap 2", s.store.Len())
	}

	// One more job goes in-flight; the process dies mid-attempt (the
	// stall keeps the attempt inside its pre-engine window).
	inflight := submitUnique(t, s, 999)
	time.Sleep(10 * time.Millisecond)
	s.Kill()

	// Restart over a healthy disk: the cap must hold over what the sweep
	// found, and replay must finish the interrupted job.
	s2 := newTestServer(t, func(c *Config) {
		c.DataDir = dir
		c.StoreMaxEntries = 2
	})
	defer s2.Drain()
	if got := s2.met.sweepRemoved.Value(); got != 0 {
		t.Fatalf("sweep removed %d entries from a store with no damaged entry", got)
	}
	if got := s2.store.Len(); got > 2 {
		t.Fatalf("restarted store holds %d entries, cap 2", got)
	}
	if deg, reason := s2.DegradedState(); deg {
		t.Fatalf("restarted server degraded: %s", reason)
	}
	// The surviving entries are intact.
	for _, j := range jobs {
		if !s2.store.Has(j.Key) {
			continue // may have been legally evicted during recovery
		}
		if _, err := s2.store.verifyEntry(s2.store.entryPath(j.Key)); err != nil {
			t.Fatalf("surviving entry %s corrupt after restart: %v", shortKey(j.Key), err)
		}
	}
	done := waitStatus(t, s2, inflight.ID, StatusDone)
	if _, err := s2.store.Artifact(done.Key, "metrics"); err != nil {
		t.Fatalf("replayed job's artifact unreadable: %v", err)
	}
	if got := s2.store.Len(); got > 2 {
		t.Fatalf("store holds %d entries after the replayed job, cap 2", got)
	}
}

// TestChaosStaleProbeFileSweptOnRestart checks that a probe file a
// crash left behind (here its Remove fails) is removed by the next
// startup sweep.
func TestChaosStaleProbeFileSweptOnRestart(t *testing.T) {
	dir := t.TempDir()
	inj := iofault.NewInjector(iofault.OS(), 1, iofault.BrokenRemove("probe", iofault.ErrIO))
	s := newTestServer(t, func(c *Config) {
		c.DataDir = dir
		c.FS = inj
	})
	if err := s.probeDisk(); err == nil {
		t.Fatalf("probe succeeded although its Remove fails")
	}
	s.Kill()

	s2 := newTestServer(t, func(c *Config) { c.DataDir = dir })
	defer s2.Drain()
	if got := s2.met.sweepRemoved.Value(); got != 1 {
		t.Fatalf("sweep removed %d files, want the stale probe file", got)
	}
	if ents, err := os.ReadDir(filepath.Join(dir, "store")); err != nil || len(ents) != 0 {
		t.Fatalf("store dir after the sweep: %v (err %v), want empty", ents, err)
	}
}

func TestChaosChurnStaysUnderQuota(t *testing.T) {
	// Sustained unique-key churn against a byte quota: the store must
	// stay under quota after every publish, evictions must fire, and
	// every job must still complete correctly.
	const quota = 4096
	s := newTestServer(t, func(c *Config) { c.StoreQuotaBytes = quota })
	defer s.Drain()

	for i := 0; i < 30; i++ {
		j := submitUnique(t, s, int64(1000+i))
		waitStatus(t, s, j.ID, StatusDone)
		if got := s.store.SizeBytes(); got > quota {
			t.Fatalf("after job %d the store is %d bytes, quota %d", i, got, quota)
		}
		// The just-finished job's artifacts are readable: the newest
		// entry is by definition not the LRU victim.
		if _, err := s.store.Artifact(j.Key, "report"); err != nil {
			t.Fatalf("fresh result evicted or unreadable: %v", err)
		}
	}
	if got := s.met.storeEvictions.Value(); got == 0 {
		t.Fatalf("30 unique jobs under a %d-byte quota evicted nothing", quota)
	}
	if got := s.met.storeEvictedBytes.Value(); got == 0 {
		t.Fatalf("evicted-bytes counter never moved")
	}

	// An evicted job's artifact answers 410 Gone with resubmit guidance.
	first, ok := s.snapshotJob("j-000001")
	if !ok {
		t.Fatalf("first job record missing")
	}
	if !s.store.Has(first.Key) {
		_, err := newTestClient(t, s).Artifact("j-000001", "report")
		if se := (*StatusError)(nil); !errors.As(err, &se) || se.Code != http.StatusGone {
			t.Fatalf("evicted artifact: %v, want status 410", err)
		}
	}
}
