package cpu

import (
	"testing"

	"dewrite/internal/units"
)

func TestExecuteAdvancesAtOneIPC(t *testing.T) {
	m := NewMachine(1)
	m.Execute(0, 1000)
	if m.Instructions() != 1000 {
		t.Fatalf("instructions = %d", m.Instructions())
	}
	if m.Cycles() != 1000 {
		t.Fatalf("cycles = %d", m.Cycles())
	}
}

func TestWriteStallLowersIPC(t *testing.T) {
	m := NewMachine(1)
	m.Execute(0, 1000) // 500 ns at 2 GHz
	// A full persist window of writes, each persisting 300 ns after issue.
	for i := 0; i < WriteWindow; i++ {
		m.RetireWrite(0, m.IssueWrite(0).Add(300*units.Nanosecond))
	}
	if m.Now(0) != units.Time(0).Add(500*units.Nanosecond) {
		t.Fatalf("thread stalled at %v before its window filled", m.Now(0))
	}
	// The next write waits for the oldest persist: 600 stall cycles.
	if issue := m.IssueWrite(0); issue != units.Time(0).Add(800*units.Nanosecond) {
		t.Fatalf("write past a full window issued at %v, want 800ns", issue)
	}
	if m.Instructions() != 1000+WriteWindow+1 {
		t.Fatalf("instructions = %d", m.Instructions())
	}
	if m.Cycles() != 1600 {
		t.Fatalf("cycles = %d, want 1600: IPC below 1 after the stall", m.Cycles())
	}
}

func TestReadStallAccounting(t *testing.T) {
	m := NewMachine(1)
	m.CompleteRead(0, m.Now(0).Add(75*units.Nanosecond))
	if m.Now(0) != units.Time(0).Add(75*units.Nanosecond) || m.Instructions() != 1 {
		t.Fatalf("after a 75 ns fill: now %v, %d instructions", m.Now(0), m.Instructions())
	}
}

func TestMultiThreadElapsedIsMax(t *testing.T) {
	m := NewMachine(4)
	m.Execute(0, 100)
	m.Execute(1, 500)
	m.Execute(2, 50)
	if m.Cycles() != 500 {
		t.Fatalf("cycles = %d, want slowest thread's 500", m.Cycles())
	}
	// 650 instructions in 500 cycles: aggregate IPC exceeds 1 with
	// parallel threads.
	if m.Instructions() != 650 {
		t.Fatalf("instructions = %d, want all threads' 650", m.Instructions())
	}
}

func TestCompletionBeforeIssuePanics(t *testing.T) {
	m := NewMachine(1)
	m.Execute(0, 100)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.CompleteRead(0, 0)
}

func TestZeroThreadsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMachine(0)
}
