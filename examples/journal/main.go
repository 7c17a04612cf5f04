// journal: a write-ahead log on persistent memory — the fsync-heavy,
// ordering-sensitive workload persistent memory exists for. Journals are
// full of duplication (repeated commit markers, padded records, recurring
// payloads), and every append must persist before the next, so write latency
// sits directly on the commit path. The example measures transaction commit
// latency on DeWrite versus the traditional secure NVM, under both metadata
// persistence schemes.
package main

import (
	"fmt"
	"log"

	"dewrite/internal/baseline"
	"dewrite/internal/config"
	"dewrite/internal/core"
	"dewrite/internal/rng"
	"dewrite/internal/sim"
	"dewrite/internal/units"
)

// journal appends fixed-size records to a line-addressable log region.
type journal struct {
	mem  sim.Memory
	head uint64
	cap  uint64
	now  units.Time
}

// commitMarker is the one-line record closing every transaction — the
// classic high-duplication journal content.
var commitMarker = func() []byte {
	line := make([]byte, config.LineSize)
	copy(line, "COMMIT\x00\x00dewrite-journal-v1")
	return line
}()

// append writes one record line and waits for it to persist (the WAL
// ordering rule).
func (j *journal) append(line []byte) {
	if j.head == j.cap {
		j.head = 0 // circular log
	}
	j.now = j.mem.Write(j.now, j.head, line)
	j.head++
}

func main() {
	const (
		logLines = 8192
		txs      = 2000
	)
	cfg := config.Experiment()

	// A transaction: 1-4 payload records + a commit marker. Payloads repeat
	// heavily (the same small set of operations dominates most logs).
	runJournal := func(mem sim.Memory) units.Duration {
		j := &journal{mem: mem, cap: logLines}
		src := rng.New(77)
		payloads := make([][]byte, 6)
		for i := range payloads {
			payloads[i] = make([]byte, config.LineSize)
			src.Fill(payloads[i])
		}
		var commitLat units.Duration
		for t := 0; t < txs; t++ {
			records := 1 + src.Intn(4)
			for r := 0; r < records; r++ {
				if src.Bool(0.8) {
					j.append(payloads[src.Intn(len(payloads))])
				} else {
					fresh := make([]byte, config.LineSize)
					src.Fill(fresh)
					j.append(fresh)
				}
			}
			start := j.now
			j.append(commitMarker)
			commitLat += j.now.Sub(start)
		}
		return commitLat / txs
	}

	fmt.Printf("%-28s %16s\n", "configuration", "mean commit")
	base := baseline.NewSecureNVM(logLines, cfg)
	fmt.Printf("%-28s %16v\n", "SecureNVM", runJournal(base))

	for _, persist := range []core.PersistMode{core.PersistBatteryBacked, core.PersistWriteThrough} {
		ctrl := core.New(core.Options{DataLines: logLines, Config: cfg, Persist: persist})
		lat := runJournal(ctrl)
		r := ctrl.Report()
		fmt.Printf("%-28s %16v   (%.0f%% of appends deduplicated)\n",
			"DeWrite/"+persist.String(), lat, float64(r.DupEliminated)/float64(r.Writes)*100)
		if r.DupEliminated == 0 {
			log.Fatal("journal produced no duplicates?")
		}
	}

	fmt.Println("\nThe commit marker and recurring payloads never hit the array twice:")
	fmt.Println("the log's persistence ordering still holds (every append returns only")
	fmt.Println("when its write — or its dedup metadata update — has completed).")
}
