// Package config centralizes the simulated machine configuration.
//
// The values follow Table II and Section IV-A of the DeWrite paper: a 2 GHz
// processor with a four-level cache hierarchy of 256 B lines, a 16 GB PCM
// main memory with 75 ns reads and 300 ns writes, hardware AES at 96 ns per
// line and 5.9 nJ per 128-bit block, CRC-32 at 15 ns, and a 2 MB metadata
// cache partitioned per Section IV-E2.
package config

import (
	"encoding/binary"

	"dewrite/internal/units"
)

// LineSize is the deduplication granularity and the size of both memory
// lines and CPU cache lines (Section III-B1: 256 B, as in IBM z systems).
const LineSize = 256

// IsZeroLine reports whether every byte of data is zero: the combinational
// check behind the zero-line fast path. It compares eight bytes at a time.
func IsZeroLine(data []byte) bool {
	i := 0
	for ; i+8 <= len(data); i += 8 {
		if binary.LittleEndian.Uint64(data[i:]) != 0 {
			return false
		}
	}
	for ; i < len(data); i++ {
		if data[i] != 0 {
			return false
		}
	}
	return true
}

// LineBits is the number of bits in one line.
const LineBits = LineSize * 8

// CPUHz is the simulated core clock frequency.
const CPUHz = 2_000_000_000

// Timing groups every latency constant the simulator consumes.
type Timing struct {
	NVMRead   units.Duration // PCM array read (row activation), per line
	NVMRowHit units.Duration // read served from an open row buffer
	NVMWrite  units.Duration // PCM array write, per line
	NVMBus    units.Duration // channel burst transfer of one line

	AESLine    units.Duration // AES encryption/decryption of one 256 B line
	CRC32      units.Duration // CRC-32 over one line (light-weight hash)
	SHA1       units.Duration // SHA-1 over one line (traditional fingerprint)
	MD5        units.Duration // MD5 over one line (traditional fingerprint)
	Compare    units.Duration // hardware byte-compare of two lines (1 cycle)
	XOR        units.Duration // OTP XOR on the read path (1 cycle)
	MAC        units.Duration // integrity digest of one line / tree node
	MetaCache  units.Duration // on-chip metadata (counter) cache access
	QueueCheck units.Duration // controller bookkeeping per request
}

// DefaultTiming returns the paper's latency configuration.
func DefaultTiming() Timing {
	cycle := units.NewClock(CPUHz).Period()
	return Timing{
		NVMRead:    75 * units.Nanosecond,
		NVMRowHit:  15 * units.Nanosecond,
		NVMWrite:   300 * units.Nanosecond,
		NVMBus:     16 * units.Nanosecond,
		AESLine:    96 * units.Nanosecond,
		CRC32:      15 * units.Nanosecond,
		SHA1:       321 * units.Nanosecond,
		MD5:        312 * units.Nanosecond,
		Compare:    cycle,
		XOR:        cycle,
		MAC:        40 * units.Nanosecond,
		MetaCache:  3 * cycle,
		QueueCheck: cycle,
	}
}

// Energy groups the per-operation energy constants in picojoules.
type Energy struct {
	NVMReadLine  float64 // pJ to read one 256 B line from the PCM array
	RowHitRead   float64 // pJ to read one line from an open row buffer
	NVMWriteLine float64 // pJ to write one 256 B line to PCM
	AESBlock     float64 // pJ to encrypt one 128-bit AES block
	CRC32Line    float64 // pJ to hash one line with CRC-32
	CompareLine  float64 // pJ for one hardware line comparison
	MetaCacheHit float64 // pJ per metadata cache access
}

// DefaultEnergy returns the paper's energy configuration. PCM read/write
// energies follow the 2 pJ/bit read, 16 pJ/bit write figures commonly used
// for the PCM model the paper cites; AES is 5.9 nJ per 128-bit block
// (Section IV-A). The dedup-logic terms are small, as the paper notes.
func DefaultEnergy() Energy {
	return Energy{
		NVMReadLine:  2.0 * LineBits,  // 2 pJ/bit
		RowHitRead:   0.2 * LineBits,  // buffer read, no array access
		NVMWriteLine: 16.0 * LineBits, // 16 pJ/bit
		AESBlock:     5900,            // 5.9 nJ
		CRC32Line:    80,
		CompareLine:  20,
		MetaCacheHit: 50,
	}
}

// AESBlocksPerLine is the number of 128-bit AES blocks in one line.
const AESBlocksPerLine = LineBits / 128

// NVMGeometry describes the banked PCM device.
type NVMGeometry struct {
	CapacityBytes uint64 // total device capacity
	Ranks         int
	BanksPerRank  int
	// RowLines is the number of consecutive 256 B lines per device row:
	// lines within a row share a bank (4 KB rows → 16 lines), so spatially
	// local accesses contend — the queueing behaviour behind the paper's
	// read/write speedups.
	RowLines uint64
	// Channels shares a data bus among the banks: every access additionally
	// occupies its channel for the line-burst time (Timing.NVMBus). Zero
	// disables bus modelling (the default; bank-level queueing dominates at
	// this reproduction's scale, and the abl-bus ablation studies the rest).
	Channels int
	// ClosePage selects a closed-page row-buffer policy: the row is closed
	// after every access, so no read is ever a row-buffer hit. Default is
	// the open-page policy.
	ClosePage bool
}

// DefaultNVM returns the paper's 16 GB PCM configuration with a typical
// 8-rank × 8-bank organization and 4 KB rows.
func DefaultNVM() NVMGeometry {
	return NVMGeometry{
		CapacityBytes: 16 * units.GB,
		Ranks:         8,
		BanksPerRank:  8,
		RowLines:      16,
	}
}

// Lines returns the number of 256 B lines in the device.
func (g NVMGeometry) Lines() uint64 { return g.CapacityBytes / LineSize }

// Banks returns the total number of banks.
func (g NVMGeometry) Banks() int { return g.Ranks * g.BanksPerRank }

// MetaCacheConfig is the partitioned metadata-cache configuration
// (Section IV-E2: 512 KB for each of the hash, address-mapping and inverted
// hash caches, 128 KB for the free-space-management cache, LRU, write-back).
type MetaCacheConfig struct {
	HashBytes    int
	AddrMapBytes int
	InvHashBytes int
	FSMBytes     int
	// TreeBytes caches integrity-tree nodes (used only when the optional
	// integrity tree is enabled).
	TreeBytes int
	// CounterCacheBytes sizes the comparison baselines' counter cache
	// (SecureNVM and derivatives; 2 MB, matching DeWrite's total metadata
	// budget). 0 means the default.
	CounterCacheBytes int
	Ways              int
	BlockBytes        int // cached metadata block granularity (one NVM line)
	PrefetchEnts      int // entries prefetched per NVM access for sequential tables
}

// DefaultMetaCache returns the paper's metadata cache configuration.
func DefaultMetaCache() MetaCacheConfig {
	return MetaCacheConfig{
		HashBytes:    512 * units.KB,
		AddrMapBytes: 512 * units.KB,
		InvHashBytes: 512 * units.KB,
		FSMBytes:     128 * units.KB,
		TreeBytes:    256 * units.KB,
		Ways:         8,
		BlockBytes:   LineSize,
		PrefetchEnts: 256,
	}
}

// DedupConfig holds the deduplication-scheme parameters.
type DedupConfig struct {
	HistoryBits   int  // duplication-state history window length (3 in the paper)
	MaxReference  uint // saturating per-line reference count (255 in the paper)
	PNAEnabled    bool // prediction-based NVM access for hash misses
	HashSizeBits  int  // fingerprint width (CRC-32)
	AddrEntrySize int  // bytes per address-mapping/inverted-hash entry payload
	HashEntrySize int  // bytes per hash-table entry (4B hash + 4B addr + 1B ref)
}

// DefaultDedup returns the paper's deduplication configuration.
func DefaultDedup() DedupConfig {
	return DedupConfig{
		HistoryBits:   3,
		MaxReference:  255,
		PNAEnabled:    true,
		HashSizeBits:  32,
		AddrEntrySize: 4,
		HashEntrySize: 9,
	}
}

// CacheLevel describes one level of the CPU cache hierarchy.
type CacheLevel struct {
	Name      string
	SizeBytes int
	Ways      int
	Latency   units.Duration
}

// DefaultHierarchy returns the four-level cache hierarchy of Table II, all
// with 256 B lines.
func DefaultHierarchy() []CacheLevel {
	cycle := units.NewClock(CPUHz).Period()
	return []CacheLevel{
		{Name: "L1", SizeBytes: 32 * units.KB, Ways: 4, Latency: 4 * cycle},
		{Name: "L2", SizeBytes: 256 * units.KB, Ways: 8, Latency: 12 * cycle},
		{Name: "L3", SizeBytes: 4 * units.MB, Ways: 16, Latency: 30 * cycle},
		{Name: "L4", SizeBytes: 32 * units.MB, Ways: 16, Latency: 60 * cycle},
	}
}

// Config bundles the full machine description.
type Config struct {
	Timing    Timing
	Energy    Energy
	NVM       NVMGeometry
	MetaCache MetaCacheConfig
	Dedup     DedupConfig
	Hierarchy []CacheLevel
}

// Default returns the paper's configuration.
func Default() Config {
	return Config{
		Timing:    DefaultTiming(),
		Energy:    DefaultEnergy(),
		NVM:       DefaultNVM(),
		MetaCache: DefaultMetaCache(),
		Dedup:     DefaultDedup(),
		Hierarchy: DefaultHierarchy(),
	}
}

// Experiment returns the machine the experiments, the commands and the
// examples simulate: Default's timing, energy, caches and dedup parameters
// over a device of 2 ranks × 4 banks with 16-line rows. The bank count is
// scaled to the reduced working sets, so per-bank pressure (and therefore
// queueing) resembles the full-size system.
func Experiment() Config {
	cfg := Default()
	cfg.NVM.Ranks = 2
	cfg.NVM.BanksPerRank = 4
	return cfg
}

// BankOf returns the bank that services line address lineAddr on a device
// of banks banks with rows of rowLines lines. Rows are interleaved across
// banks, so the lines of one row share a bank; a rowLines of 0 or 1 means
// one-line rows.
func BankOf(lineAddr, rowLines uint64, banks int) int {
	if rowLines > 1 {
		lineAddr /= rowLines
	}
	return int(lineAddr % uint64(banks))
}

// SmallNVM shrinks the device for unit tests and fast experiments while
// keeping the bank organization, so queueing behaviour is preserved.
func SmallNVM(capacity uint64) NVMGeometry {
	return NVMGeometry{CapacityBytes: capacity, Ranks: 4, BanksPerRank: 4, RowLines: 16}
}
