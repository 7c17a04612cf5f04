// replay: record a workload once, then replay the identical trace through
// different secure-NVM schemes — the apples-to-apples methodology the
// experiment suite uses, shown end to end with a trace file on disk.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"dewrite/internal/config"
	"dewrite/internal/sim"
	"dewrite/internal/trace"
	"dewrite/internal/workload"
)

func main() {
	cfg := config.Experiment()

	// Record: materialize one run of the streamcluster profile.
	prof, _ := workload.ByName("streamcluster")
	tr := workload.Generate(prof, 2026, 20000)

	path := filepath.Join(os.TempDir(), "streamcluster.trace")
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	n, err := tr.WriteTo(f)
	if err != nil {
		log.Fatal(err)
	}
	f.Close()
	defer os.Remove(path)
	fmt.Printf("recorded %d requests (%.1f MB) to %s\n\n", len(tr.Requests), float64(n)/1e6, path)

	// Replay: load it back and drive every scheme with the same stream.
	g, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	loaded, err := trace.ReadTrace(g)
	g.Close()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-10s %12s %12s %10s %12s\n", "scheme", "mean write", "mean read", "IPC", "energy uJ")
	var base sim.Result
	for _, s := range []sim.Scheme{sim.SchemeSecureNVM, sim.SchemeShredder,
		sim.SchemeDirect, sim.SchemeParallel, sim.SchemeDeWrite} {
		mem := sim.NewMemory(s, loaded.Lines, cfg)
		res := sim.RunTrace(loaded, mem, 4000)
		fmt.Printf("%-10s %12v %12v %10.3f %12.1f\n",
			s, res.MeanWriteLat, res.MeanReadLat, res.IPC, res.EnergyPJ/1e6)
		if s == sim.SchemeSecureNVM {
			base = res
		}
		if s == sim.SchemeDeWrite {
			fmt.Printf("\nDeWrite vs SecureNVM on the identical stream: "+
				"%.2fx writes, %.2fx reads, %.2fx IPC, %.2fx energy\n",
				sim.WriteSpeedup(res, base), sim.ReadSpeedup(res, base),
				sim.RelativeIPC(res, base), sim.RelativeEnergy(res, base))
		}
	}
}
