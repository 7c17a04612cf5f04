// Package attr is the simulator's one instrumentation path: it explains *why*
// a request took its latency and *which subsystem* consumed the device's
// write endurance, at a granularity the per-epoch aggregates (timeline)
// cannot reach.
//
// The layer has two halves:
//
//   - Causal phase tracing. A deterministically sampled subset of requests
//     (every Nth, with the offset drawn from internal/rng so two runs with
//     the same seed sample the same requests) is decomposed into pipeline
//     phases — hash, fingerprint lookup, metadata-cache miss fill,
//     encryption, verify read, bank-queue wait, array service and the
//     degradation ladder — recorded by the components the request flows
//     through. Sampled phases export as report aggregates, as
//     flamegraph-compatible folded stacks and, with span capture on, as a
//     Chrome trace with per-phase, per-bank and per-thread request tracks.
//
//   - Write-provenance ledger. Every physical NVM line write is tagged with
//     the cause that issued it (demand data, dedup-miss unique placement,
//     metadata writeback, verify pulse, wear-level rotation, remap, recovery
//     scrub) and accumulated into per-cause write/energy counters with a
//     per-bank breakdown. The ledger is exhaustive, not sampled: summing the
//     per-cause write counters always reproduces the device's total line
//     writes, which the accounting-invariant tests pin.
//
// The whole layer is nil-safe: a nil *Recorder (or *Ledger) is the disabled
// instrument, every method returns immediately, and the hot path pays one
// predictable branch and zero allocations. Recording is purely observational
// — attaching a recorder, with or without span capture, never changes a
// run's timing, statistics or report bytes.
package attr

// Cause classifies why one physical NVM line write was issued. The taxonomy
// covers every writeArray call site in the device and its callers, so the
// per-cause counters partition the device's total line writes exactly.
type Cause uint8

// Write-provenance causes.
const (
	// CauseDemand is a demand data write: the baseline path, and any device
	// write not otherwise attributed.
	CauseDemand Cause = iota
	// CauseUnique is a dedup-miss unique placement: the DeWrite controller
	// writing a line that detection could not eliminate.
	CauseUnique
	// CauseMetadata is a metadata writeback (dirty metadata-cache eviction,
	// write-through persistence, or an ordered shutdown flush).
	CauseMetadata
	// CauseVerify is an array pulse wasted on a known-stuck line: the cells
	// are pulsed (wear and energy accrue) but the write-verify read rejects
	// the result and the stored contents never change.
	CauseVerify
	// CauseWearLevel is a Start-Gap rotation write: the gap-move copy that
	// spreads wear across the region. Start-Gap's only program use,
	// abl-wear, attaches no recorder, so no report shows this counter above
	// zero today; the cause keeps its slot and name in reports.
	CauseWearLevel
	// CauseRemap is a relocation write: the device programming a line into
	// the spare region after ECP exhaustion, or the controller re-placing
	// data after retiring a stuck location.
	CauseRemap
	// CauseRecovery is a recovery scrub write. The current crash model
	// rebuilds metadata at boot without timed device writes, so this counter
	// stays zero today; the cause is reserved so recovery-time write traffic
	// becomes visible the moment the model grows it.
	CauseRecovery

	// NumCauses is the number of write-provenance causes.
	NumCauses = int(CauseRecovery) + 1
)

// String returns the cause's stable machine-friendly name (used in report
// JSON, folded stacks, CSV and metric labels — do not change existing names).
func (c Cause) String() string {
	switch c {
	case CauseDemand:
		return "demand"
	case CauseUnique:
		return "unique"
	case CauseMetadata:
		return "metadata"
	case CauseVerify:
		return "verify"
	case CauseWearLevel:
		return "wearlevel"
	case CauseRemap:
		return "remap"
	case CauseRecovery:
		return "recovery"
	default:
		return "unknown"
	}
}

// Phase classifies one segment of a sampled request's simulated latency.
// Phases are attribution weights, not a partition: the parallel encryption
// way deliberately overlaps detection, and device-level phases nest inside
// controller-level ones, so per-phase totals may sum past the request total.
type Phase uint8

// Latency phases.
const (
	// PhaseHash is the CRC-32 fingerprint computation.
	PhaseHash Phase = iota
	// PhaseLookup is the hash-table probe through the metadata cache.
	PhaseLookup
	// PhaseMetaMiss is a metadata-cache miss's NVM fill (any partition).
	PhaseMetaMiss
	// PhaseEncrypt is counter-mode line encryption or OTP generation.
	PhaseEncrypt
	// PhaseVerify is a candidate verify read plus byte compare.
	PhaseVerify
	// PhaseQueue is time spent waiting for a busy NVM bank (or channel).
	PhaseQueue
	// PhaseService is the array read/write service time at a bank.
	PhaseService
	// PhaseDegrade is the degradation ladder's extra latency: the
	// write-verify penalty, ECP correction and spare-region reprogramming.
	PhaseDegrade

	// NumPhases is the number of latency phases.
	NumPhases = int(PhaseDegrade) + 1
)

// String returns the phase's stable machine-friendly name.
func (p Phase) String() string {
	switch p {
	case PhaseHash:
		return "hash"
	case PhaseLookup:
		return "lookup"
	case PhaseMetaMiss:
		return "meta-miss"
	case PhaseEncrypt:
		return "encrypt"
	case PhaseVerify:
		return "verify"
	case PhaseQueue:
		return "bank-queue"
	case PhaseService:
		return "bank-service"
	case PhaseDegrade:
		return "degrade"
	default:
		return "unknown"
	}
}

// Kind distinguishes the two request directions a sampled context can open.
type Kind uint8

// Request kinds.
const (
	// KindWrite is a CPU write request.
	KindWrite Kind = iota
	// KindRead is a CPU read request.
	KindRead

	// NumKinds is the number of request kinds.
	NumKinds = int(KindRead) + 1
)

// String returns the kind's stable machine-friendly name.
func (k Kind) String() string {
	switch k {
	case KindWrite:
		return "write"
	case KindRead:
		return "read"
	default:
		return "unknown"
	}
}

// Op counts a functional operation performed on behalf of a sampled request
// by the layers that have no clock of their own (the dedup tables, the AES
// engine) — the request-context thread through those packages.
type Op uint8

// Functional operations.
const (
	// OpCRC is one CRC-32 line fingerprint computation.
	OpCRC Op = iota
	// OpProbe is one hash-table candidate probe in the dedup tables.
	OpProbe
	// OpAESPad is one counter-mode OTP (pad) generation for a full line.
	OpAESPad
	// OpCompare is one full-line byte compare.
	OpCompare

	// NumOps is the number of counted functional operations.
	NumOps = int(OpCompare) + 1
)

// String returns the op's stable machine-friendly name.
func (o Op) String() string {
	switch o {
	case OpCRC:
		return "crc"
	case OpProbe:
		return "probe"
	case OpAESPad:
		return "aes-pad"
	case OpCompare:
		return "compare"
	default:
		return "unknown"
	}
}
