package sim

import (
	"reflect"
	"testing"
)

// The scheduler reference: a plain loop that states the machine's turn
// order by definition. Before every single operation it picks the live
// agent with the smallest clock, ties going to the earliest spawned, and it
// stops once every non-daemon agent is done. FuzzSchedulerReference checks
// Machine.Run's batched scheduler and its host path against it.

// Scheduler-reference operation kinds.
const (
	opSpin = iota
	opFence
	opWaitUntil
	opKinds
)

// schedOp is one operation: Spin(arg), Fence, or WaitUntil(arg).
type schedOp struct {
	kind int
	arg  int64
}

// schedAgent is one program: a non-daemon runs its ops once, a daemon
// repeats them until the machine stops it.
type schedAgent struct {
	daemon bool
	ops    []schedOp
}

// schedEntry is one log line: agent (by spawn position) issued its op-th
// operation at clock.
type schedEntry struct {
	agent, op int
	clock     int64
}

// decodeSchedule turns fuzz input into 1–4 agents, listed in spawn order:
// a count, a daemon flag byte and a spawn-order byte, then (selector,
// argument) pairs that each append one op to the agent the selector names.
// The agents are decoded by identity and then permuted into spawn order. A
// daemon's ops end with a Fence so every round of its loop advances its
// clock.
func decodeSchedule(data []byte) []schedAgent {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	n := 1 + next()%4
	flags, order := next(), next()
	agents := make([]schedAgent, n)
	for i := range agents {
		agents[i].daemon = flags>>i&1 == 1
	}
	for len(data) >= 2 {
		sel, arg := next(), next()
		a := &agents[sel%n]
		if len(a.ops) == 24 {
			continue
		}
		op := schedOp{kind: sel / 4 % opKinds}
		switch op.kind {
		case opSpin:
			op.arg = int64(arg % 64)
		case opWaitUntil:
			op.arg = int64(arg) * 16
		}
		a.ops = append(a.ops, op)
	}
	for i := range agents {
		if agents[i].daemon {
			agents[i].ops = append(agents[i].ops, schedOp{kind: opFence})
		}
	}
	// Spawn order: a Fisher–Yates shuffle whose choices are the digits of
	// the order byte (4! = 24 orders fit in one byte).
	for i := n - 1; i > 0; i-- {
		j := order % (i + 1)
		order /= i + 1
		agents[i], agents[j] = agents[j], agents[i]
	}
	return agents
}

// referenceSchedule is the definition of the turn order, one operation per
// step, with a Fence costing fence cycles.
func referenceSchedule(agents []schedAgent, fence int64) []schedEntry {
	clock := make([]int64, len(agents))
	pc := make([]int, len(agents))
	done := make([]bool, len(agents))
	var log []schedEntry
	for {
		workLeft := false
		for i, a := range agents {
			workLeft = workLeft || !a.daemon && !done[i]
		}
		if !workLeft {
			return log
		}
		best := -1
		for i := range agents {
			if !done[i] && (best < 0 || clock[i] < clock[best]) {
				best = i
			}
		}
		a := agents[best]
		if !a.daemon && pc[best] == len(a.ops) {
			done[best] = true // its body returns on this turn
			continue
		}
		op := a.ops[pc[best]%len(a.ops)]
		log = append(log, schedEntry{best, pc[best], clock[best]})
		pc[best]++
		switch op.kind {
		case opSpin:
			clock[best] += op.arg
		case opFence:
			clock[best] += fence
		case opWaitUntil:
			clock[best] = max(clock[best], op.arg)
		}
	}
}

// machineSchedule runs the agents on a machine with SyncSlack 0 and logs
// every operation from inside the agent bodies.
func machineSchedule(agents []schedAgent) (log []schedEntry, fence int64) {
	m := newTestMachine(12)
	m.SyncSlack = 0
	for i, a := range agents {
		body := func(c *Core) {
			for k := 0; a.daemon || k < len(a.ops); k++ {
				log = append(log, schedEntry{i, k, c.Now()})
				switch op := a.ops[k%len(a.ops)]; op.kind {
				case opSpin:
					c.Spin(op.arg)
				case opFence:
					c.Fence()
				case opWaitUntil:
					c.WaitUntil(op.arg)
				}
			}
		}
		name := string(rune('a' + i))
		if a.daemon {
			m.SpawnDaemon(name, i%2, nil, body)
		} else {
			m.Spawn(name, i%2, nil, body)
		}
	}
	m.Run()
	return log, m.H.FenceLatency()
}

// FuzzSchedulerReference checks that the machine runs operations in
// exactly the reference's order and at the reference's clocks, for any mix
// of daemons, spawn orders and tie-heavy op costs.
func FuzzSchedulerReference(f *testing.F) {
	f.Add([]byte{1, 0, 0, 5, 4, 0, 1, 5, 8, 30, 9, 2})
	f.Add([]byte{3, 0x31, 0, 0, 1, 0, 2, 0, 3, 0, 8, 40, 9, 40, 10, 1})
	f.Add([]byte{2, 0x03, 4, 1, 5, 2})
	f.Add([]byte{0, 0, 0, 7, 4, 0, 8, 200})
	f.Fuzz(func(t *testing.T, data []byte) {
		agents := decodeSchedule(data)
		got, fence := machineSchedule(agents)
		want := referenceSchedule(agents, fence)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("machine order diverges from the reference\n got %v\nwant %v", got, want)
		}
	})
}
