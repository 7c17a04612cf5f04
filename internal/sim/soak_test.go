package sim

import (
	"bytes"
	"os"
	"strconv"
	"strings"
	"testing"

	"dewrite/internal/config"
	"dewrite/internal/core"
	"dewrite/internal/fault"
	"dewrite/internal/rng"
	"dewrite/internal/units"
)

// readLine reads line addr of mem into a fresh buffer.
func readLine(mem Memory, now units.Time, addr uint64) ([]byte, units.Time) {
	got := make([]byte, config.LineSize)
	return got, mem.ReadInto(now, addr, got)
}

// soakGrid returns the crash-point grid for TestSoakCrashRecoverResume: one
// entry per segment, each the number of steps to run before the next crash.
// The DEWRITE_SOAK_GRID environment variable (comma-separated positive step
// counts, e.g. "500,1000,1500") overrides the default 4×3000 grid and also
// lifts the -short skip, so CI's race-short job can exercise a reduced grid
// under the race detector without paying for the full soak.
func soakGrid(t *testing.T) []int {
	env := os.Getenv("DEWRITE_SOAK_GRID")
	if env == "" {
		if testing.Short() {
			t.Skip("soak test skipped in -short mode (set DEWRITE_SOAK_GRID to run a reduced grid)")
		}
		return []int{3000, 3000, 3000, 3000}
	}
	var grid []int
	for _, part := range strings.Split(env, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			t.Fatalf("bad DEWRITE_SOAK_GRID entry %q: want comma-separated positive step counts", part)
		}
		grid = append(grid, n)
	}
	return grid
}

// TestSoakAllSchemesStayConsistent drives a long adversarial mix of writes
// and reads through every scheme simultaneously and checks, continuously,
// that all schemes return identical plaintexts and that the DeWrite dedup
// invariants hold. It is the repository's big integration hammer.
func TestSoakAllSchemesStayConsistent(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	const (
		lines = 4096
		steps = 30000
	)
	cfg := testConfig()

	schemes := []Scheme{SchemeDeWrite, SchemeDirect, SchemeParallel, SchemeSecureNVM, SchemeShredder}
	mems := make([]Memory, len(schemes))
	nows := make([]units.Time, len(schemes))
	for i, s := range schemes {
		mems[i] = NewMemory(s, lines, cfg)
	}

	src := rng.New(0xdeadbeef)
	shadow := make(map[uint64][]byte)
	pool := make([][]byte, 6)
	for i := range pool {
		pool[i] = make([]byte, config.LineSize)
		src.Fill(pool[i])
	}
	zero := make([]byte, config.LineSize)

	for step := 0; step < steps; step++ {
		addr := src.Zipf(lines, 0.7)
		switch {
		case src.Bool(0.45): // write
			var data []byte
			switch src.Intn(4) {
			case 0:
				data = zero
			case 1:
				data = pool[src.Intn(len(pool))]
			case 2: // partial rewrite of current content
				data = make([]byte, config.LineSize)
				if old := shadow[addr]; old != nil {
					copy(data, old)
				}
				data[src.Intn(config.LineSize)] ^= byte(1 + src.Intn(255))
			default:
				data = make([]byte, config.LineSize)
				src.Fill(data)
			}
			for i := range mems {
				nows[i] = mems[i].Write(nows[i], addr, data)
			}
			shadow[addr] = append([]byte(nil), data...)
		default: // read and cross-check (only written lines: reading an
			// unwritten line is architecturally undefined — the baseline
			// would decrypt uninitialized cells)
			want, ok := shadow[addr]
			if !ok {
				continue
			}
			for i := range mems {
				got, done := readLine(mems[i], nows[i], addr)
				nows[i] = done
				if !bytes.Equal(got, want) {
					t.Fatalf("step %d: %v returned wrong data for line %d", step, schemes[i], addr)
				}
			}
		}

		if step%5000 == 4999 {
			for i, s := range schemes {
				if ctrl, ok := mems[i].(*core.Controller); ok {
					if err := ctrl.Tables().CheckInvariants(); err != nil {
						t.Fatalf("step %d: %v invariants: %v", step, s, err)
					}
				}
			}
		}
	}

	// Final sweep: every line agrees across all schemes.
	for addr := uint64(0); addr < lines; addr++ {
		want, ok := shadow[addr]
		if !ok {
			continue
		}
		for i := range mems {
			got, done := readLine(mems[i], nows[i], addr)
			nows[i] = done
			if !bytes.Equal(got, want) {
				t.Fatalf("final sweep: %v wrong at line %d", schemes[i], addr)
			}
		}
	}

	// Sanity: DeWrite actually deduplicated under this mix.
	dw := mems[0].(*core.Controller).Report()
	if dw.DupEliminated == 0 {
		t.Fatal("soak mix produced no dedup at all")
	}
	t.Logf("soak: %d writes, %d eliminated (%.1f%%), %d collisions",
		dw.Writes, dw.DupEliminated,
		float64(dw.DupEliminated)/float64(dw.Writes)*100, dw.Dedup.Collisions)
}

// readVerifier is the detected-corruption read path every crash-capable
// scheme exposes.
type readVerifier interface {
	ReadVerified(now units.Time, logical uint64, dst []byte) (units.Time, error)
}

// TestSoakCrashRecoverResume drives each crash-capable scheme through
// repeated crash→recover→resume cycles under an adversarial write/read mix
// and checks, after every crash, that the dedup refcount/mapping invariants
// hold and that every line reads back either a value it historically held
// (recovery may legitimately serve an older persisted generation) or a
// detected-corruption error — never silent wrong data.
func TestSoakCrashRecoverResume(t *testing.T) {
	grid := soakGrid(t)
	const lines = 1024
	cfg := testConfig()

	for _, scheme := range []Scheme{SchemeDeWrite, SchemeSecureNVM, SchemeShredder} {
		t.Run(scheme.String(), func(t *testing.T) {
			mem := NewMemoryWith(scheme, lines, cfg, fault.Config{}, true)
			src := rng.New(0xc0ffee ^ uint64(scheme))
			var now units.Time

			shadow := make(map[uint64][]byte)    // current expected value
			history := make(map[uint64][][]byte) // every value the line ever held
			record := func(addr uint64, data []byte) {
				cp := append([]byte(nil), data...)
				shadow[addr] = cp
				history[addr] = append(history[addr], cp)
			}
			zero := make([]byte, config.LineSize)
			buf := make([]byte, config.LineSize)

			for seg, steps := range grid {
				for step := 0; step < steps; step++ {
					addr := src.Zipf(lines, 0.7)
					if src.Bool(0.5) {
						var data []byte
						switch src.Intn(3) {
						case 0:
							data = zero
						case 1: // duplicate of another line's content
							other := src.Zipf(lines, 0.7)
							if old := shadow[other]; old != nil {
								data = old
							} else {
								data = zero
							}
						default:
							data = make([]byte, config.LineSize)
							src.Fill(data)
						}
						now = mem.Write(now, addr, data)
						record(addr, data)
					} else if want, ok := shadow[addr]; ok {
						got, done := readLine(mem, now, addr)
						now = done
						if !bytes.Equal(got, want) {
							t.Fatalf("seg %d step %d: wrong data for line %d", seg, step, addr)
						}
					}
				}

				// Crash without flushing metadata caches, recover, and verify.
				nm, rep, err := crashRecover(mem)
				if err != nil {
					t.Fatalf("seg %d: crash: %v", seg, err)
				}
				mem = nm
				if ctrl, ok := mem.(*core.Controller); ok {
					if err := ctrl.Tables().CheckInvariants(); err != nil {
						t.Fatalf("seg %d: recovered invariants: %v", seg, err)
					}
				}
				rv := mem.(readVerifier)
				poisoned := 0
				for addr, hist := range history {
					done, err := rv.ReadVerified(now, addr, buf)
					now = done
					if err != nil {
						// Detected loss: acceptable, resyncs on the next write.
						poisoned++
						delete(shadow, addr)
						continue
					}
					matched := false
					for _, h := range hist {
						if bytes.Equal(buf, h) {
							matched = true
							break
						}
					}
					if !matched {
						t.Fatalf("seg %d: line %d recovered to a value it never held", seg, addr)
					}
					// Recovery may serve an older generation; resync the shadow.
					shadow[addr] = append([]byte(nil), buf...)
				}
				if rep.PoisonedLines < poisoned {
					t.Fatalf("seg %d: %d poisoned reads but report says %d lines",
						seg, poisoned, rep.PoisonedLines)
				}
			}

			// Resume after the last crash: overwrite everything and re-verify —
			// fresh writes must supersede any poisoning.
			data := make([]byte, config.LineSize)
			for addr := uint64(0); addr < lines; addr++ {
				src.Fill(data)
				now = mem.Write(now, addr, data)
				record(addr, data)
			}
			for addr := uint64(0); addr < lines; addr++ {
				got, done := readLine(mem, now, addr)
				now = done
				if !bytes.Equal(got, shadow[addr]) {
					t.Fatalf("post-recovery rewrite: wrong data at line %d", addr)
				}
			}
			if ctrl, ok := mem.(*core.Controller); ok {
				if err := ctrl.Tables().CheckInvariants(); err != nil {
					t.Fatalf("final invariants: %v", err)
				}
			}
		})
	}
}
