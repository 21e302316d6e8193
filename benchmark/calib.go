package main

import "time"

// The host this benchmark was sized on is shared with other tenants, and its
// speed drifts by 15-25% over tens of seconds as they load it. To make runs
// taken at different times comparable, each round process times a
// calibration loop whenever it is otherwise idle: after its cold operation,
// between closed-loop operations, and around the daemon workloads' phases.
// The round's times are then scaled by calRefSeconds ÷ the median loop time,
// so they read as seconds on a quiet host of the reference type (README.md,
// "Host notes"). The loop is code of the benchmark's own, so no change to the
// program can speed it up. It does two things:
//
//   - an arithmetic loop, which follows the CPU time the host grants;
//   - round trips between two goroutines over unbuffered channels, which
//     follow how fast the host wakes a goroutine on another CPU. The
//     simulator hands control between its agents this way.
//
// The pair was chosen by measurement over loops that add random lookups in
// a large map or allocation: on ten-seed runs of every workload it tied for
// the smallest spread, and unlike the tie it allocates nothing, so it does
// not change the program's garbage collection.

const (
	calSpins      = 10_000_000
	calRoundTrips = 50_000
	// calRefSeconds is the loop's time on the reference host when quiet
	// (about its 10th percentile over 900 runs).
	calRefSeconds = 0.040
)

// calibrationLoop runs the loop once and returns its seconds.
func calibrationLoop() float64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < calSpins; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	ping, pong := make(chan struct{}), make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range ping {
			pong <- struct{}{}
		}
	}()
	for i := 0; i < calRoundTrips; i++ {
		ping <- struct{}{}
		<-pong
	}
	close(ping)
	<-done
	d := time.Since(t0).Seconds()
	if x == 0 {
		// Impossible from a nonzero state; using x keeps the compiler
		// from dropping the loop.
		panic("xorshift state reached zero")
	}
	return d
}
