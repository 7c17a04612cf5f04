// Package integrity implements a Merkle integrity tree over the NVM's line
// contents — the standard companion defense to memory encryption. The paper's
// threat model (Section II-A) covers confidentiality only; this package is
// the repository's extension implementing the natural next step: detecting
// tampering and replay of the encrypted lines.
//
// The tree is eight-ary. Each leaf authenticates one line as a truncated
// digest of (address, counter, ciphertext); internal nodes digest their
// children; the root lives on-chip, where an attacker with physical access
// to the DIMM cannot reach it. A read verifies its leaf against the path to
// the root; a write updates the path. Deduplication composes beautifully: an
// eliminated duplicate write changes no line, so it needs no tree update at
// all — DeWrite cuts integrity maintenance traffic along with the writes.
package integrity

import (
	"crypto/sha1"
	"fmt"
)

// DigestSize is the truncated node/leaf digest size in bytes (64-bit MACs,
// the size hardware integrity engines typically store per node).
const DigestSize = 8

// Arity is the tree fan-out.
const Arity = 8

// Digest is a truncated authentication digest.
type Digest [DigestSize]byte

// Tree is a Merkle tree over a fixed number of leaves. The zero digest marks
// never-written leaves. Not safe for concurrent use.
type Tree struct {
	leaves uint64
	// levels[0] = leaves, levels[last] = the single root digest.
	levels [][]Digest
	key    []byte
}

// New returns a tree covering the given number of leaves (one per NVM line).
// key seasons every digest so an attacker cannot forge nodes offline.
func New(leaves uint64, key []byte) *Tree {
	if leaves == 0 {
		panic("integrity: zero leaves")
	}
	t := &Tree{leaves: leaves, key: append([]byte(nil), key...)}
	n := leaves
	for {
		t.levels = append(t.levels, make([]Digest, n))
		if n == 1 {
			break
		}
		n = (n + Arity - 1) / Arity
	}
	// Fold the empty tree upward so the root authenticates "all unwritten".
	for lvl := 0; lvl < len(t.levels)-1; lvl++ {
		for i := range t.levels[lvl+1] {
			t.levels[lvl+1][i] = t.nodeDigest(lvl, uint64(i))
		}
	}
	return t
}

// Levels returns the number of tree levels including the leaf level — the
// path length every verify/update walks.
func (t *Tree) Levels() int { return len(t.levels) }

// Root returns the on-chip root digest.
func (t *Tree) Root() Digest { return t.levels[len(t.levels)-1][0] }

// LeafDigest computes the authentication digest of one line.
func (t *Tree) LeafDigest(addr, counter uint64, ciphertext []byte) Digest {
	buf := make([]byte, 0, len(t.key)+16+len(ciphertext))
	buf = append(buf, t.key...)
	buf = appendU64(buf, addr)
	buf = appendU64(buf, counter)
	buf = append(buf, ciphertext...)
	return truncate(sha1.Sum(buf))
}

// nodeDigest computes the parent digest over the children of node i at the
// next level up.
func (t *Tree) nodeDigest(childLevel int, parentIdx uint64) Digest {
	children := t.levels[childLevel]
	start := parentIdx * Arity
	end := start + Arity
	if end > uint64(len(children)) {
		end = uint64(len(children))
	}
	buf := make([]byte, 0, len(t.key)+8+int(end-start)*DigestSize)
	buf = append(buf, t.key...)
	buf = appendU64(buf, parentIdx)
	for i := start; i < end; i++ {
		buf = append(buf, children[i][:]...)
	}
	return truncate(sha1.Sum(buf))
}

// Update installs a new leaf digest and refreshes the path to the root. It
// returns the number of node writes performed (the leaf plus one per level),
// which the timed layer converts into latency and metadata traffic.
func (t *Tree) Update(leaf uint64, d Digest) int {
	t.check(leaf)
	t.levels[0][leaf] = d
	writes := 1
	idx := leaf
	for lvl := 0; lvl < len(t.levels)-1; lvl++ {
		idx /= Arity
		t.levels[lvl+1][idx] = t.nodeDigest(lvl, idx)
		writes++
	}
	return writes
}

// Verify checks a leaf digest against the stored leaf and the stored path up
// to the root, recomputing each parent. It returns false if the leaf or any
// node on the path disagrees — the tamper/replay detection a read performs.
func (t *Tree) Verify(leaf uint64, d Digest) bool {
	t.check(leaf)
	if t.levels[0][leaf] != d {
		return false
	}
	idx := leaf
	for lvl := 0; lvl < len(t.levels)-1; lvl++ {
		idx /= Arity
		if t.levels[lvl+1][idx] != t.nodeDigest(lvl, idx) {
			return false
		}
	}
	return true
}

// CorruptNode flips a bit of an internal node, simulating NVM tampering of
// the stored tree, for tests and demonstrations.
func (t *Tree) CorruptNode(level int, idx uint64) {
	if level <= 0 || level >= len(t.levels) {
		panic(fmt.Sprintf("integrity: no internal level %d", level))
	}
	t.levels[level][idx][0] ^= 0x01
}

func (t *Tree) check(leaf uint64) {
	if leaf >= t.leaves {
		panic(fmt.Sprintf("integrity: leaf %#x beyond %d", leaf, t.leaves))
	}
}

func appendU64(b []byte, v uint64) []byte {
	for i := 0; i < 8; i++ {
		b = append(b, byte(v>>(8*i)))
	}
	return b
}

func truncate(full [20]byte) Digest {
	var d Digest
	copy(d[:], full[:DigestSize])
	return d
}
