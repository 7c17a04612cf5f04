package experiments

import (
	"bytes"
	"fmt"
	"testing"

	"dewrite/internal/config"
	"dewrite/internal/sim"
	"dewrite/internal/timeline"
	"dewrite/internal/workload"
)

// TestTimelineCSVDeterministicAcrossWorkers: the same seed and epoch length
// must produce byte-identical timeline CSVs (and wear heatmaps) no matter how
// many engine workers run the grid — collectors are per-run, so parallel
// execution cannot perturb the series.
func TestTimelineCSVDeterministicAcrossWorkers(t *testing.T) {
	apps := []string{"mcf", "lbm"}
	schemes := []sim.Scheme{sim.SchemeDeWrite, sim.SchemeSecureNVM}
	const requests, warmup, seed, every = 2000, 200, 42, 500

	type job struct {
		prof workload.Profile
		prep *sim.Prepared
		sch  sim.Scheme
	}
	var jobs []job
	for _, app := range apps {
		prof, ok := workload.ByName(app)
		if !ok {
			t.Fatalf("profile %s missing", app)
		}
		prep := sim.Prepare(prof, sim.Options{Requests: requests, Warmup: warmup, Seed: seed})
		for _, sch := range schemes {
			jobs = append(jobs, job{prof: prof, prep: prep, sch: sch})
		}
	}

	// runGrid executes every job with the given worker count and returns the
	// CSV and heatmap bytes per job.
	runGrid := func(workers int) ([][]byte, [][]byte) {
		csvs := make([][]byte, len(jobs))
		heats := make([][]byte, len(jobs))
		ForEach(workers, len(jobs), func(i int) {
			j := jobs[i]
			tl := timeline.NewByRequests(every)
			opts := sim.Options{
				Requests: requests,
				Warmup:   warmup,
				Prepared: j.prep,
				Timeline: tl,
			}
			mem := sim.NewMemory(j.sch, j.prof.WorkingSetLines, config.Default())
			res := sim.Run(j.prof.Name, j.sch.String(), mem, j.prof, opts)
			if res.Timeline == nil {
				t.Errorf("job %d: no timeline", i)
				return
			}
			var csv, heat bytes.Buffer
			if err := res.Timeline.WriteCSV(&csv); err != nil {
				t.Errorf("job %d: %v", i, err)
				return
			}
			if err := res.Timeline.WriteWearHeatmapCSV(&heat); err != nil {
				t.Errorf("job %d: %v", i, err)
				return
			}
			csvs[i] = csv.Bytes()
			heats[i] = heat.Bytes()
		})
		return csvs, heats
	}

	baseCSV, baseHeat := runGrid(1)
	for i, c := range baseCSV {
		if len(c) == 0 {
			t.Fatalf("job %d produced an empty CSV", i)
		}
	}
	for _, workers := range []int{2, 4} {
		gotCSV, gotHeat := runGrid(workers)
		for i := range jobs {
			label := fmt.Sprintf("%s/%s", jobs[i].prof.Name, jobs[i].sch)
			if !bytes.Equal(baseCSV[i], gotCSV[i]) {
				t.Errorf("workers=%d: %s timeline CSV differs from sequential run", workers, label)
			}
			if !bytes.Equal(baseHeat[i], gotHeat[i]) {
				t.Errorf("workers=%d: %s wear heatmap differs from sequential run", workers, label)
			}
		}
	}
}
