package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"strings"

	"dewrite/internal/stats"
)

// goldenSeed is the seed whose simulated outputs are pinned in the golden
// file. Runs on other seeds check instead that every rep of a run produces
// the same digests.
const goldenSeed = 42

// goldenFile is the on-disk form of the pinned digests.
type goldenFile struct {
	Seed    uint64            `json:"seed"`
	Digests map[string]string `json:"digests"`
}

// checker compares a run's output digests against the golden file (at the
// golden seed) and against each other (every seed): a key's digest must not
// change between reps of one run, traced or not.
type checker struct {
	golden   map[string]string // pinned digests; nil when not checking them
	suffix   string            // appended to keys of toy-scale runs
	seen     map[string]string
	failures []string
}

func loadChecker(path string, seed uint64, update, toy bool) (*checker, error) {
	c := &checker{seen: map[string]string{}}
	if toy {
		c.suffix = "@toy"
	}
	if seed != goldenSeed || update {
		return c, nil
	}
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return c, nil // nothing pinned yet: only the reps are compared
	}
	if err != nil {
		return nil, fmt.Errorf("golden: %w", err)
	}
	var gf goldenFile
	if err := json.Unmarshal(data, &gf); err != nil {
		return nil, fmt.Errorf("golden: %s: %w", path, err)
	}
	if gf.Seed != goldenSeed {
		return nil, fmt.Errorf("golden: %s pins seed %d, want %d", path, gf.Seed, goldenSeed)
	}
	c.golden = gf.Digests
	return c, nil
}

// check records digest under key and reports whether it matches both the
// golden digest and every earlier digest of the key in this run.
func (c *checker) check(key, digest string) bool {
	key += c.suffix
	if first, ok := c.seen[key]; ok && first != digest {
		c.failures = append(c.failures, fmt.Sprintf("%s: digest changed between reps (%.12s → %.12s)", key, first, digest))
		return false
	}
	c.seen[key] = digest
	if want, ok := c.golden[key]; ok && want != digest {
		c.failures = append(c.failures, fmt.Sprintf("%s: digest %.12s, golden %.12s", key, digest, want))
		return false
	}
	return true
}

// save merges this run's digests into the golden file at path.
func (c *checker) save(path string) error {
	gf := goldenFile{Seed: goldenSeed, Digests: map[string]string{}}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &gf); err != nil {
			return fmt.Errorf("golden: %s: %w", path, err)
		}
	} else if !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("golden: %w", err)
	}
	for k, v := range c.seen {
		gf.Digests[k] = v
	}
	data, err := json.MarshalIndent(gf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// tableDigest hashes an experiment's tables, leaving out the columns whose
// header says "this host" (host-clock measurements, which benchdiff skips
// for the same reason).
func tableDigest(tables []*stats.Table) string {
	type table struct {
		Title   string
		Columns []string
		Rows    [][]string
	}
	var out []table
	for _, tb := range tables {
		var keep []int
		t := table{Title: tb.Title}
		for i, col := range tb.Columns {
			if !strings.Contains(col, "this host") {
				keep = append(keep, i)
				t.Columns = append(t.Columns, col)
			}
		}
		for r := 0; r < tb.NumRows(); r++ {
			row := make([]string, 0, len(keep))
			for _, i := range keep {
				row = append(row, tb.Cell(r, i))
			}
			t.Rows = append(t.Rows, row)
		}
		out = append(out, t)
	}
	data, err := json.Marshal(out)
	if err != nil {
		panic(err) // strings only: cannot fail
	}
	return digest(data)
}
