package wearlevel_test

import (
	"fmt"

	"dewrite/internal/baseline"
	"dewrite/internal/config"
	"dewrite/internal/units"
	"dewrite/internal/wearlevel"
)

// Example shows a hot line migrating across physical slots of an encrypted
// memory with one spare line.
func Example() {
	mem := baseline.NewSecureNVM(9, config.Default())
	sg := wearlevel.New(mem, 0, 8, 4) // 8 lines, gap moves every 4 writes

	line := make([]byte, config.LineSize)
	copy(line, "hot")
	var now units.Time
	slots := map[uint64]bool{}
	for i := 0; i < 64; i++ {
		slots[sg.Physical(3)] = true // where does logical line 3 live now?
		now = sg.Write(now, 3, line)
	}
	data := make([]byte, config.LineSize)
	sg.ReadInto(now, 3, data)
	fmt.Printf("still reads %q after %d writes\n", data[:3], sg.Stats().Writes)
	fmt.Printf("line 3 visited %d distinct physical slots\n", len(slots))
	// Output:
	// still reads "hot" after 64 writes
	// line 3 visited 3 distinct physical slots
}
