package iofault

import (
	"math/rand"
	"strings"
	"time"
)

// pathMatch reports whether a rule filtered on substr applies to path.
// The empty filter matches everything.
func pathMatch(path, substr string) bool {
	return substr == "" || strings.Contains(path, substr)
}

// failSync fails fsync with err on every Nth matching sync call.
type failSync struct {
	substr string
	everyN int
	err    error
	n      int
}

// FailSync returns a rule that fails every Nth fsync of files whose
// path contains pathSubstr ("" = all files) with err. everyN = 1 fails
// every fsync — a persistently dying device; everyN = 3 models the
// transient stall a bounded retry should absorb.
func FailSync(pathSubstr string, everyN int, err error) Rule {
	if everyN < 1 {
		everyN = 1
	}
	return &failSync{substr: pathSubstr, everyN: everyN, err: err}
}

func (r *failSync) Name() string { return "fail-sync" }

func (r *failSync) Check(op Op, _ *rand.Rand) Fault {
	if op.Kind != OpSync || !pathMatch(op.Path, r.substr) {
		return Fault{}
	}
	r.n++
	if r.n%r.everyN == 0 {
		return Fault{Err: r.err}
	}
	return Fault{}
}

// failFirst fails the first n matching operations, then heals.
type failFirst struct {
	substr string
	kind   OpKind
	n      int
	err    error
}

// FailFirst returns a rule that fails the first n matching operations of
// the given kind with err and then lets everything through — a disk that
// is sick for a while and recovers. It is the deterministic shape the
// chaos smoke uses: the outage length is exact, so entry into and exit
// from degraded mode are both guaranteed.
func FailFirst(pathSubstr string, kind OpKind, n int, err error) Rule {
	return &failFirst{substr: pathSubstr, kind: kind, n: n, err: err}
}

func (r *failFirst) Name() string { return "fail-first" }

func (r *failFirst) Check(op Op, _ *rand.Rand) Fault {
	if op.Kind != r.kind || !pathMatch(op.Path, r.substr) || r.n <= 0 {
		return Fault{}
	}
	r.n--
	return Fault{Err: r.err}
}

// diskFull injects ENOSPC once a cumulative write budget is spent.
type diskFull struct {
	substr  string
	limit   int64
	written int64
}

// DiskFull returns a rule modeling a filling disk: matching writes
// succeed until limitBytes cumulative bytes have been written, then the
// write that crosses the boundary is TORN (the remaining budget is
// written, the rest is not) and fails with ENOSPC, as do all writes,
// mkdirs and renames after it. Clearing the condition (SetActive(false)
// or Reset) models an operator freeing space.
func DiskFull(pathSubstr string, limitBytes int64) *DiskFullRule {
	return &DiskFullRule{diskFull{substr: pathSubstr, limit: limitBytes}}
}

// DiskFullRule exposes Reset so tests can refill the budget.
type DiskFullRule struct{ diskFull }

// Reset restores the full write budget — the disk was cleaned up.
func (r *DiskFullRule) Reset() { r.written = 0 }

func (r *DiskFullRule) Name() string { return "disk-full" }

func (r *DiskFullRule) Check(op Op, _ *rand.Rand) Fault {
	if !pathMatch(op.Path, r.substr) {
		return Fault{}
	}
	switch op.Kind {
	case OpWrite:
		if r.written >= r.limit {
			return Fault{Err: ErrNoSpace, TornBytes: -1}
		}
		if r.written+int64(op.Bytes) > r.limit {
			torn := int(r.limit - r.written)
			r.written = r.limit
			return Fault{Err: ErrNoSpace, TornBytes: torn}
		}
		r.written += int64(op.Bytes)
	case OpMkdir, OpRename:
		// Directory entries need blocks too; a full disk fails them.
		if r.written >= r.limit {
			return Fault{Err: ErrNoSpace}
		}
	}
	return Fault{}
}

// tornWrite probabilistically cuts writes short.
type tornWrite struct {
	substr string
	prob   float64
	err    error
}

// TornWrite returns a rule that, with probability prob per matching
// write, writes only a random prefix of the buffer and fails with err —
// the classic torn write a crash mid-write leaves behind. Determinism:
// the injector's seeded rng drives both the coin flip and the cut
// point.
func TornWrite(pathSubstr string, prob float64, err error) Rule {
	return &tornWrite{substr: pathSubstr, prob: prob, err: err}
}

func (r *tornWrite) Name() string { return "torn-write" }

func (r *tornWrite) Check(op Op, rng *rand.Rand) Fault {
	if op.Kind != OpWrite || !pathMatch(op.Path, r.substr) {
		return Fault{}
	}
	if rng.Float64() >= r.prob {
		return Fault{}
	}
	torn := 0
	if op.Bytes > 1 {
		torn = rng.Intn(op.Bytes)
	}
	return Fault{Err: r.err, TornBytes: torn}
}

// brokenRemove fails removes.
type brokenRemove struct {
	substr string
	err    error
}

// BrokenRemove returns a rule that fails matching Remove/RemoveAll
// calls with err, leaving the target in place — an unlink that an I/O
// error or a crash never let happen.
func BrokenRemove(pathSubstr string, err error) Rule {
	return &brokenRemove{substr: pathSubstr, err: err}
}

func (r *brokenRemove) Name() string { return "broken-remove" }

func (r *brokenRemove) Check(op Op, _ *rand.Rand) Fault {
	if op.Kind != OpRemove || !pathMatch(op.Path, r.substr) {
		return Fault{}
	}
	return Fault{Err: r.err}
}

// slow delays matching operations.
type slow struct {
	substr string
	kinds  map[OpKind]bool
	d      time.Duration
}

// Slow returns a rule that stalls each matching operation by d without
// failing it — a congested or throttled device. kinds restricts which
// operation classes stall; empty means all.
func Slow(pathSubstr string, d time.Duration, kinds ...OpKind) Rule {
	km := map[OpKind]bool{}
	for _, k := range kinds {
		km[k] = true
	}
	return &slow{substr: pathSubstr, kinds: km, d: d}
}

func (r *slow) Name() string { return "slow-io" }

func (r *slow) Check(op Op, _ *rand.Rand) Fault {
	if !pathMatch(op.Path, r.substr) {
		return Fault{}
	}
	if len(r.kinds) > 0 && !r.kinds[op.Kind] {
		return Fault{}
	}
	return Fault{Delay: r.d}
}
