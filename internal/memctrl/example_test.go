package memctrl_test

import (
	"fmt"

	"dewrite/internal/memctrl"
	"dewrite/internal/units"
)

// Example shows FR-FCFS servicing a later row-buffer hit ahead of an earlier
// request to another row of the same bank.
func Example() {
	ns := func(v uint64) units.Time { return units.Time(v) * units.Time(units.Nanosecond) }
	reqs := []memctrl.Request{
		{Arrive: ns(0), Op: memctrl.Read, Addr: 0},   // opens row 0 of bank 0
		{Arrive: ns(1), Op: memctrl.Read, Addr: 128}, // row 8, also bank 0
		{Arrive: ns(2), Op: memctrl.Read, Addr: 1},   // row 0 again
	}
	for _, c := range memctrl.Simulate(reqs, memctrl.DefaultConfig()) {
		fmt.Printf("line %3d: latency %v, row hit %t\n", c.Addr, c.Latency(), c.Hit)
	}
	// Output:
	// line   0: latency 75ns, row hit false
	// line 128: latency 164ns, row hit false
	// line   1: latency 88ns, row hit true
}
