package experiments

import (
	"testing"
)

func TestTailLatencyShapes(t *testing.T) {
	tabs := TailLatency(quickSuite())
	if len(tabs) != 1 {
		t.Fatalf("TailLatency returned %d tables", len(tabs))
	}
	tb := tabs[0]
	if tb.NumRows() == 0 {
		t.Fatal("no rows")
	}
	for row := 0; row < tb.NumRows(); row++ {
		for col := 2; col <= 7; col++ {
			c := tb.Cell(row, col)
			if c == "" || c == "0s" {
				t.Errorf("row %d col %d: empty percentile %q", row, col, c)
			}
		}
	}
}
