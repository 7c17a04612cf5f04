package cme_test

import (
	"bytes"
	"fmt"

	"dewrite/internal/cme"
	"dewrite/internal/config"
)

// Example shows counter-mode line encryption: the same plaintext written
// twice (counter bump) produces unrelated ciphertexts, yet both decrypt.
func Example() {
	engine := cme.MustNewEngine([]byte("0123456789abcdef"))
	ctrs := cme.NewCounterStore(64)

	plain := make([]byte, config.LineSize)
	copy(plain, "secret payload")
	const addr = 42

	ct1 := make([]byte, config.LineSize)
	engine.EncryptLine(ct1, plain, addr, ctrs.Bump(addr))
	ct2 := make([]byte, config.LineSize)
	engine.EncryptLine(ct2, plain, addr, ctrs.Bump(addr))

	fmt.Println("ciphertexts identical:", bytes.Equal(ct1, ct2))

	back := make([]byte, config.LineSize)
	engine.DecryptLine(back, ct2, addr, ctrs.Get(addr))
	fmt.Printf("decrypts to %q\n", back[:14])
	// Output:
	// ciphertexts identical: false
	// decrypts to "secret payload"
}
