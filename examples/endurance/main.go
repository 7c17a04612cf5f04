// endurance: a lifetime analysis of the secure NVM with and without
// DeWrite. PCM cells endure 10^7–10^8 writes; eliminating duplicate line
// writes stretches device lifetime roughly in proportion to the write
// reduction, and the bit-level behaviour (what DCW/FNW/DEUCE see) improves
// on top (Figures 12 and 13 of the paper).
package main

import (
	"fmt"

	"dewrite/internal/baseline"
	"dewrite/internal/config"
	"dewrite/internal/sim"
	"dewrite/internal/trace"
	"dewrite/internal/workload"
)

func main() {
	const endurance = 1e8 // PCM cell write endurance
	cfg := config.Default()
	cfg.NVM.Ranks = 2
	cfg.NVM.BanksPerRank = 4

	fmt.Println("Lifetime under the write stream of each application (relative years,")
	fmt.Println("assuming perfect wear leveling and 10^8 cell endurance):")
	fmt.Println()
	fmt.Printf("%-14s %10s %12s %12s %10s\n", "app", "dup %", "base wr/line", "DW wr/line", "lifetime x")

	for _, name := range []string{"bzip2", "sjeng", "mcf", "streamcluster", "lbm", "blackscholes"} {
		prof, _ := workload.ByName(name)
		opts := sim.Options{Requests: 20000, Warmup: 4000, Seed: 11}

		dwRes, dwMem := sim.RunScheme(sim.SchemeDeWrite, prof, cfg, opts)
		baseRes, baseMem := sim.RunScheme(sim.SchemeSecureNVM, prof, cfg, opts)

		dwWear := sim.DeviceOf(dwMem).WearStats()
		baseWear := sim.DeviceOf(baseMem).WearStats()

		// Lifetime scales inversely with the write rate for a fixed trace.
		lifetimeX := float64(baseRes.Device.Writes) / float64(dwRes.Device.Writes)
		fmt.Printf("%-14s %9.1f%% %12.2f %12.2f %9.2fx\n",
			name,
			float64(dwRes.Gen.Duplicates)/float64(dwRes.Gen.Writes)*100,
			baseWear.MeanPerLine, dwWear.MeanPerLine, lifetimeX)
	}

	// Bit-level view on one app: what fraction of cells actually flips per
	// write under DCW, with and without DeWrite's eliminations.
	fmt.Println("\nBit-level endurance on mcf (cells flipped per write):")
	prof, _ := workload.ByName("mcf")
	gen := workload.NewGenerator(prof, 3)
	dcw := baseline.NewDCW(prof.WorkingSetLines)
	dcwDW := baseline.NewDCW(prof.WorkingSetLines)
	resident := map[string]int{}
	byAddr := map[uint64]string{}
	var flips, flipsDW, writes uint64
	for i := 0; i < 30000; i++ {
		req := gen.Next()
		if req.Op != trace.Write {
			continue
		}
		writes++
		isDup := resident[string(req.Data)] > 0
		if old, ok := byAddr[req.Addr]; ok {
			resident[old]--
		}
		byAddr[req.Addr] = string(req.Data)
		resident[string(req.Data)]++

		flips += uint64(dcw.Write(req.Addr, req.Data))
		if !isDup {
			flipsDW += uint64(dcwDW.Write(req.Addr, req.Data))
		}
	}
	denom := float64(writes) * config.LineBits
	fmt.Printf("  DCW alone:      %5.1f%% of cells per write\n", float64(flips)/denom*100)
	fmt.Printf("  DeWrite + DCW:  %5.1f%% of cells per write\n", float64(flipsDW)/denom*100)
	fmt.Printf("\nWith %.0e endurance, halving cell flips roughly doubles the time to\n", endurance)
	fmt.Println("first cell failure under the same traffic.")
}
