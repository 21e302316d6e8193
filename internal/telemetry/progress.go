package telemetry

import (
	"sync/atomic"
)

// ProgressSnapshot is a point-in-time view of one job's progress. It is
// the payload of the daemon's SSE progress stream and the lines of the
// stored progress artifact.
type ProgressSnapshot struct {
	// Phase is the most recently started phase (the engine labels phases
	// with experiment IDs).
	Phase string `json:"phase,omitempty"`
	// PhasesDone / PhasesTotal count completed vs scheduled phases.
	PhasesDone  int64 `json:"phases_done"`
	PhasesTotal int64 `json:"phases_total"`
	// ShardsDone / ShardsTotal count trial shards — the engine's unit of
	// parallel work — completed vs handed out so far. ShardsTotal grows
	// as the run discovers work; it is not known up front.
	ShardsDone  int64 `json:"shards_done"`
	ShardsTotal int64 `json:"shards_total"`
}

// Progress is one job's live progress state. The engine publishes
// checkpoints into it (StartPhase / EndPhase / AddShards / ShardDone)
// while any number of observers Snapshot it concurrently; every update is
// a single atomic operation, so checkpoints cost nanoseconds and can
// never perturb experiment output. A nil *Progress is the disabled state:
// all methods are no-ops, so emit sites need no guards.
type Progress struct {
	phasesDone, phasesTotal atomic.Int64
	shardsDone, shardsTotal atomic.Int64
	phase                   atomic.Pointer[string]
}

// NewProgress returns an empty progress tracker.
func NewProgress() *Progress { return &Progress{} }

// SetPhasesTotal declares how many phases the run will execute.
func (p *Progress) SetPhasesTotal(n int) {
	if p != nil {
		p.phasesTotal.Store(int64(n))
	}
}

// StartPhase marks a phase as the currently running one. With phases
// running concurrently, the most recently started wins — the stream is a
// coarse operator view, not a schedule.
func (p *Progress) StartPhase(name string) {
	if p != nil {
		p.phase.Store(&name)
	}
}

// EndPhase counts one phase as completed.
func (p *Progress) EndPhase() {
	if p != nil {
		p.phasesDone.Add(1)
	}
}

// AddShards grows the scheduled-work counter by n trial shards.
func (p *Progress) AddShards(n int) {
	if p != nil {
		p.shardsTotal.Add(int64(n))
	}
}

// ShardDone counts one completed trial shard.
func (p *Progress) ShardDone() {
	if p != nil {
		p.shardsDone.Add(1)
	}
}

// Snapshot captures the current state. Safe to call at any time from any
// goroutine, including on a nil Progress (zero snapshot).
func (p *Progress) Snapshot() ProgressSnapshot {
	if p == nil {
		return ProgressSnapshot{}
	}
	s := ProgressSnapshot{
		PhasesDone:  p.phasesDone.Load(),
		PhasesTotal: p.phasesTotal.Load(),
		ShardsDone:  p.shardsDone.Load(),
		ShardsTotal: p.shardsTotal.Load(),
	}
	if ph := p.phase.Load(); ph != nil {
		s.Phase = *ph
	}
	return s
}
