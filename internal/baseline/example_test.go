package baseline_test

import (
	"fmt"

	"dewrite/internal/baseline"
	"dewrite/internal/config"
)

// Example shows why bit-level write reduction fails under encryption: DCW
// sees ~half the cells flip for a one-byte plaintext change, while DEUCE's
// partial re-encryption contains the damage for sparse updates.
func Example() {
	dcw := baseline.NewDCW(8)
	deuce := baseline.NewDEUCE(8)

	line := make([]byte, config.LineSize)
	dcw.Write(7, line)
	deuce.Write(7, line)

	line[0] ^= 0x01 // a single-bit plaintext change
	dcwFlips := dcw.Write(7, line)
	deuceFlips := deuce.Write(7, line)

	fmt.Printf("DCW flips roughly half the cells: %v\n",
		dcwFlips > config.LineBits*4/10 && dcwFlips < config.LineBits*6/10)
	fmt.Printf("DEUCE contains the change to one word: %v\n", deuceFlips <= 16)
	// Output:
	// DCW flips roughly half the cells: true
	// DEUCE contains the change to one word: true
}
