package integrity

import (
	"testing"
	"testing/quick"

	"dewrite/internal/rng"
)

func testTree(leaves uint64) *Tree { return New(leaves, []byte("tree-key")) }

func TestUpdateThenVerify(t *testing.T) {
	tr := testTree(100)
	d := tr.LeafDigest(5, 1, []byte("ciphertext"))
	tr.Update(5, d)
	if !tr.Verify(5, d) {
		t.Fatal("fresh update failed verification")
	}
}

func TestVerifyDetectsWrongLeaf(t *testing.T) {
	tr := testTree(100)
	d := tr.LeafDigest(5, 1, []byte("ciphertext"))
	tr.Update(5, d)
	forged := tr.LeafDigest(5, 1, []byte("tampered!!"))
	if tr.Verify(5, forged) {
		t.Fatal("tampered content verified")
	}
}

func TestVerifyDetectsReplay(t *testing.T) {
	// Replay: the old ciphertext under the old counter is put back. The
	// digest binds the counter, so the stale digest no longer matches the
	// tree (which was updated with the new write).
	tr := testTree(64)
	old := tr.LeafDigest(7, 1, []byte("version-1"))
	tr.Update(7, old)
	fresh := tr.LeafDigest(7, 2, []byte("version-2"))
	tr.Update(7, fresh)
	if tr.Verify(7, old) {
		t.Fatal("replayed stale line verified")
	}
	if !tr.Verify(7, fresh) {
		t.Fatal("current line rejected")
	}
}

func TestVerifyDetectsInternalNodeTampering(t *testing.T) {
	tr := testTree(512)
	d := tr.LeafDigest(100, 1, []byte("data"))
	tr.Update(100, d)
	if !tr.Verify(100, d) {
		t.Fatal("sanity verify failed")
	}
	tr.CorruptNode(1, 100/Arity)
	if tr.Verify(100, d) {
		t.Fatal("corrupted internal node went undetected")
	}
}

func TestRootChangesOnEveryUpdate(t *testing.T) {
	tr := testTree(64)
	seen := map[Digest]bool{tr.Root(): true}
	for i := uint64(0); i < 64; i++ {
		tr.Update(i, tr.LeafDigest(i, 1, []byte{byte(i)}))
		r := tr.Root()
		if seen[r] {
			t.Fatalf("root repeated after update %d", i)
		}
		seen[r] = true
	}
}

func TestUpdateWritesEqualLevels(t *testing.T) {
	tr := testTree(1000)
	// 1000 leaves, arity 8 → levels: 1000, 125, 16, 2, 1 → 5 levels.
	if tr.Levels() != 5 {
		t.Fatalf("Levels = %d, want 5", tr.Levels())
	}
	writes := tr.Update(3, tr.LeafDigest(3, 1, []byte("x")))
	if writes != tr.Levels() {
		t.Fatalf("Update wrote %d nodes, want %d", writes, tr.Levels())
	}
}

func TestSingleLeafTree(t *testing.T) {
	tr := testTree(1)
	if tr.Levels() != 1 {
		t.Fatalf("Levels = %d", tr.Levels())
	}
	d := tr.LeafDigest(0, 1, []byte("only"))
	tr.Update(0, d)
	if !tr.Verify(0, d) {
		t.Fatal("single-leaf verify failed")
	}
	if tr.Root() != d {
		t.Fatal("single-leaf root should be the leaf")
	}
}

func TestDifferentKeysDisagree(t *testing.T) {
	a := New(16, []byte("key-a"))
	b := New(16, []byte("key-b"))
	if a.LeafDigest(0, 0, []byte("x")) == b.LeafDigest(0, 0, []byte("x")) {
		t.Fatal("digests must be keyed")
	}
}

func TestUpdateVerifyProperty(t *testing.T) {
	tr := testTree(256)
	src := rng.New(9)
	current := map[uint64]Digest{}
	f := func(leafRaw uint8, ctr uint16, payload []byte) bool {
		leaf := uint64(leafRaw)
		d := tr.LeafDigest(leaf, uint64(ctr), payload)
		tr.Update(leaf, d)
		current[leaf] = d
		// Every previously written leaf still verifies; a random foreign
		// digest on this leaf does not (unless astronomically colliding).
		probe := uint64(src.Intn(256))
		if want, ok := current[probe]; ok && !tr.Verify(probe, want) {
			return false
		}
		var bogus Digest
		src.Fill(bogus[:])
		return !tr.Verify(leaf, bogus)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestBoundsPanic(t *testing.T) {
	tr := testTree(4)
	for name, f := range map[string]func(){
		"update": func() { tr.Update(4, Digest{}) },
		"verify": func() { tr.Verify(9, Digest{}) },
		"zero":   func() { New(0, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}
