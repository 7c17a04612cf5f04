package sim

import (
	"encoding/json"
	"fmt"
	"io"

	"dewrite/internal/attr"
	"dewrite/internal/baseline"
	"dewrite/internal/core"
	"dewrite/internal/fault"
	"dewrite/internal/nvm"
	"dewrite/internal/timeline"
	"dewrite/internal/workload"
)

// ReportSchema identifies the JSON layout of RunReport; bump it whenever a
// field changes meaning so downstream tooling can detect incompatibility.
// v5 added the optional sharding block, v4 the optional attribution block,
// v3 the optional faults block, v2 the optional timeline block; every
// earlier field is unchanged, so v4, v3, v2 and v1 documents still decode
// (see DecodeRunReport).
const ReportSchema = "dewrite/run/v5"

// ReportSchemaV4 is the previous layout: identical minus the sharding block.
const ReportSchemaV4 = "dewrite/run/v4"

// ReportSchemaV3 is the v4 layout minus the attribution block.
const ReportSchemaV3 = "dewrite/run/v3"

// ReportSchemaV2 is the v3 layout minus the faults block.
const ReportSchemaV2 = "dewrite/run/v2"

// ReportSchemaV1 is the original layout: v2 minus the timeline block.
const ReportSchemaV1 = "dewrite/run/v1"

// LatencyQuantiles is the machine-readable latency section of a run report.
// All durations are integer picoseconds of simulated time.
type LatencyQuantiles struct {
	Count  uint64 `json:"count"`
	MeanPs uint64 `json:"mean_ps"`
	P50Ps  uint64 `json:"p50_ps"`
	P95Ps  uint64 `json:"p95_ps"`
	P99Ps  uint64 `json:"p99_ps"`
	SumPs  uint64 `json:"sum_ps"`
}

// RunReport is the machine-readable form of one simulation run: everything a
// Result carries, plus the scheme's own counters when the memory is one of
// the known controllers. It round-trips through encoding/json.
type RunReport struct {
	Schema string `json:"schema"`
	App    string `json:"app"`
	Scheme string `json:"scheme"`

	Requests  uint64 `json:"requests"`
	MemWrites uint64 `json:"mem_writes"`
	MemReads  uint64 `json:"mem_reads"`

	Instructions uint64  `json:"instructions"`
	Cycles       uint64  `json:"cycles"`
	IPC          float64 `json:"ipc"`
	ElapsedPs    uint64  `json:"elapsed_ps"`

	WriteLatency LatencyQuantiles `json:"write_latency"`
	ReadLatency  LatencyQuantiles `json:"read_latency"`

	EnergyPJ  float64        `json:"energy_pj"`
	Generator workload.Stats `json:"generator"`
	Device    nvm.Stats      `json:"device"`

	// Exactly one of the following is set, matching the scheme family.
	Controller *core.Report     `json:"controller,omitempty"`
	Baseline   *baseline.Report `json:"baseline,omitempty"`

	// Timeline is the epoch time series (v2), present when the run was
	// collected with Options.Timeline.
	Timeline *timeline.Report `json:"timeline,omitempty"`

	// Faults is the fault-injection block (v3), present when the run armed
	// device fault injection or fired a crash point.
	Faults *FaultReport `json:"faults,omitempty"`

	// Attribution is the causal-tracing and write-provenance block (v4),
	// present when the run was collected with Options.Attr.
	Attribution *attr.Report `json:"attribution,omitempty"`

	// Sharding is the shard-partition block (v5), present when the run
	// executed through RunSharded with more than one shard. Shard-count-1
	// runs take the sequential path and omit it, keeping their reports
	// byte-identical to sequential ones.
	Sharding *ShardingReport `json:"sharding,omitempty"`
}

// FaultReport is the faults block of a v3 run report: the armed injection
// config (defaults applied), the device's degradation census, and — when a
// crash point fired — the recovery scrub's report.
type FaultReport struct {
	Config fault.Config          `json:"config"`
	Device fault.DeviceStats     `json:"device"`
	Crash  *fault.RecoveryReport `json:"crash,omitempty"`
}

// NewRunReport assembles the machine-readable report for a finished run. The
// memory may be nil (trace replays over opaque memories); when it is one of
// the known schemes its counter report is embedded.
func NewRunReport(res Result, mem Memory) RunReport {
	r := RunReport{
		Schema:       ReportSchema,
		App:          res.App,
		Scheme:       res.Scheme,
		Requests:     res.Requests,
		MemWrites:    res.MemWrites,
		MemReads:     res.MemReads,
		Instructions: res.Instructions,
		Cycles:       res.Cycles,
		IPC:          res.IPC,
		ElapsedPs:    uint64(res.Elapsed),
		WriteLatency: LatencyQuantiles{
			Count:  res.MemWrites,
			MeanPs: uint64(res.MeanWriteLat),
			P50Ps:  uint64(res.P50WriteLat),
			P95Ps:  uint64(res.P95WriteLat),
			P99Ps:  uint64(res.P99WriteLat),
			SumPs:  uint64(res.WriteLatSum),
		},
		ReadLatency: LatencyQuantiles{
			Count:  res.MemReads,
			MeanPs: uint64(res.MeanReadLat),
			P50Ps:  uint64(res.P50ReadLat),
			P95Ps:  uint64(res.P95ReadLat),
			P99Ps:  uint64(res.P99ReadLat),
			SumPs:  uint64(res.ReadLatSum),
		},
		EnergyPJ:  res.EnergyPJ,
		Generator: res.Gen,
		Device:    res.Device,
	}
	switch m := mem.(type) {
	case *core.Controller:
		rep := m.Report()
		r.Controller = &rep
	case *baseline.SecureNVM:
		rep := m.Report()
		r.Baseline = &rep
	case *baseline.Shredder:
		rep := m.Inner().Report()
		r.Baseline = &rep
	}
	r.Timeline = res.Timeline
	r.Attribution = res.Attribution
	r.Sharding = res.Sharding
	if dev := DeviceOf(mem); dev != nil && (dev.FaultsEnabled() || res.Crash != nil) {
		r.Faults = &FaultReport{
			Config: dev.FaultConfig(),
			Device: dev.FaultStats(),
			Crash:  res.Crash,
		}
	} else if res.Crash != nil {
		r.Faults = &FaultReport{Crash: res.Crash}
	}
	return r
}

// DecodeRunReport parses a run report, accepting the current v5 layout as
// well as v4, v3, v2 and v1 documents (whose fields are strict subsets —
// they decode with nil Sharding / Attribution / Faults / Timeline blocks).
// Any other schema string is an error.
func DecodeRunReport(data []byte) (RunReport, error) {
	var r RunReport
	if err := json.Unmarshal(data, &r); err != nil {
		return RunReport{}, fmt.Errorf("run report: %w", err)
	}
	switch r.Schema {
	case ReportSchema, ReportSchemaV4, ReportSchemaV3, ReportSchemaV2, ReportSchemaV1:
		return r, nil
	default:
		return RunReport{}, fmt.Errorf("run report: unsupported schema %q (want %q, %q, %q, %q or %q)",
			r.Schema, ReportSchema, ReportSchemaV4, ReportSchemaV3, ReportSchemaV2, ReportSchemaV1)
	}
}

// WriteJSON writes the report as one indented JSON object followed by a
// newline. The encoding is deterministic: struct fields marshal in
// declaration order, so identical runs produce byte-identical output.
func (r RunReport) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}
