package experiments

import "fmt"

// EngineVersion identifies the simulation engine for result-cache keying.
// The daemon's content-addressed store keys every entry on
// hash(canonical template ‖ seed ‖ jobs ‖ EngineVersion), so bumping this
// string invalidates cached results whenever a change could alter any
// experiment's output. Bump it in any PR that changes simulation
// behaviour, seed derivation, metric names or report rendering.
const EngineVersion = "leakyway-engine/7"

// unwind carries an experiment's error through a panic to runGuarded,
// which returns it as a plain error. failf raises it with a structured
// failure, so a failed job's record reads "experiment stealth: map shared
// line: <cause>" instead of "panic: <opaque>"; a cancelled Parallel
// raises it with the run context's error, so RunAll returns
// context.Canceled (or DeadlineExceeded) to the caller.
type unwind struct{ err error }

// failf aborts the running experiment with an error naming the experiment
// and the phase that failed. It must only be called on a goroutine whose
// panics the engine recovers: the task goroutine itself, or a trial shard
// run by ctx.Parallel (whose helpers forward panics to the task).
func failf(id, phase string, err error) {
	panic(unwind{fmt.Errorf("experiment %s: %s: %w", id, phase, err)})
}
