// Package cpu provides the stall-accounting processor model that converts
// memory latencies into instructions-per-cycle (IPC), the paper's
// system-level metric (Figure 17).
//
// The model is deliberately first-order, matching what the evaluation needs:
// each hardware thread executes its non-memory instructions at one
// instruction per cycle. Persistent memory orders writes (Section III: "the
// processor has to stall and wait for a memory write to be completed before
// issuing the next one"), which the model bounds with a persist window: a
// thread runs ahead of up to WriteWindow unpersisted writes and stalls for
// the oldest when the window is full. Loads get a ReadWindow of their own,
// the memory-level parallelism of an out-of-order core.
package cpu

import (
	"fmt"

	"dewrite/internal/config"
	"dewrite/internal/units"
)

// Machine tracks per-thread simulated time and instruction counts.
type Machine struct {
	clock   units.Clock
	threads []thread
}

// WriteWindow is the per-thread bound on outstanding ordered writes: the
// persist window of epoch persistency. A thread issues writes freely until
// the window fills, then stalls for the oldest write's persist — so write
// bursts form per-bank queues at the device (the contention the paper's
// Figures 14/16 measure) while write latency still lands on the critical
// path once the window backs up.
const WriteWindow = 16

// ReadWindow bounds outstanding loads per thread: the memory-level
// parallelism of an out-of-order core. A thread issues loads freely until
// the window fills, then stalls for the oldest load's data.
const ReadWindow = 8

type thread struct {
	now          units.Time
	pending      []units.Time // completion times of in-flight writes, FIFO
	pendingReads []units.Time // completion times of in-flight loads, FIFO
	instructions uint64
}

// NewMachine returns a machine with the given hardware thread count running
// at the configured core frequency.
func NewMachine(threads int) *Machine {
	if threads < 1 {
		panic(fmt.Sprintf("cpu: %d threads", threads))
	}
	return &Machine{
		clock:   units.NewClock(config.CPUHz),
		threads: make([]thread, threads),
	}
}

// Now returns thread t's current simulated time.
func (m *Machine) Now(t int) units.Time { return m.threads[t].now }

// Execute advances thread t by n non-memory instructions (1 IPC).
func (m *Machine) Execute(t int, n uint64) {
	th := &m.threads[t]
	th.instructions += n
	th.now = th.now.Add(m.clock.Cycles(n))
}

// Delay advances thread t by a fixed on-chip latency (e.g. cache lookups)
// without retiring instructions.
func (m *Machine) Delay(t int, d units.Duration) {
	m.threads[t].now = m.threads[t].now.Add(d)
}

// IssueWrite begins a memory write instruction. Persistent-memory ordering
// bounds the number of unpersisted writes (WriteWindow); when the window is
// full the thread stalls until its oldest write persists — that stall is how
// write latency lands on the critical path under bursts. It returns the
// issue time.
func (m *Machine) IssueWrite(t int) units.Time {
	th := &m.threads[t]
	th.instructions++
	if len(th.pending) >= WriteWindow {
		var oldest units.Time
		oldest, th.pending = popFront(th.pending)
		th.now = units.Max(th.now, oldest)
	}
	return th.now
}

// popFront removes the head of a FIFO by shifting the rest down in place.
// Reslicing past the head instead would strand capacity at the front, so
// the next append would reallocate every few requests.
func popFront(q []units.Time) (units.Time, []units.Time) {
	head := q[0]
	n := copy(q, q[1:])
	return head, q[:n]
}

// RetireWrite records the persist time of the write issued by IssueWrite,
// joining the thread's ordered persist window.
func (m *Machine) RetireWrite(t int, done units.Time) {
	th := &m.threads[t]
	th.pending = append(th.pending, done)
}

// IssueRead begins a memory load. When the thread already has ReadWindow
// loads in flight it stalls until the oldest returns. It returns the issue
// time.
func (m *Machine) IssueRead(t int) units.Time {
	th := &m.threads[t]
	th.instructions++
	if len(th.pendingReads) >= ReadWindow {
		var oldest units.Time
		oldest, th.pendingReads = popFront(th.pendingReads)
		th.now = units.Max(th.now, oldest)
	}
	return th.now
}

// RetireRead records the data-return time of the load issued by IssueRead.
func (m *Machine) RetireRead(t int, done units.Time) {
	th := &m.threads[t]
	th.pendingReads = append(th.pendingReads, done)
}

// CompleteRead accounts a memory read instruction issued at the thread's
// current time and completing at done: the thread stalls until the line
// returns, as on a cache fill. It panics if done precedes the thread's time.
func (m *Machine) CompleteRead(t int, done units.Time) {
	th := &m.threads[t]
	th.instructions++
	if done < th.now {
		panic("cpu: read completes before issue")
	}
	th.now = done
}

// Instructions returns the total instructions executed across threads.
func (m *Machine) Instructions() uint64 {
	var sum uint64
	for i := range m.threads {
		sum += m.threads[i].instructions
	}
	return sum
}

// Elapsed returns the wall-clock simulated time: the latest thread time,
// including any still-pending write persists (the final drain).
func (m *Machine) Elapsed() units.Duration {
	var max units.Time
	for i := range m.threads {
		if m.threads[i].now > max {
			max = m.threads[i].now
		}
		for _, p := range m.threads[i].pending {
			if p > max {
				max = p
			}
		}
		for _, p := range m.threads[i].pendingReads {
			if p > max {
				max = p
			}
		}
	}
	return max.Sub(0)
}

// Cycles returns the elapsed wall-clock cycles.
func (m *Machine) Cycles() uint64 { return m.clock.CyclesIn(m.Elapsed()) }
