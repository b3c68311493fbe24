package experiments

import (
	"fmt"
	"time"

	"repro/internal/query"
)

// PipelinePoint is one configuration's measurement of the staged batch
// pipeline: total join wall clock, time to first row (the latency until
// the emit stage delivered its first batch to the sink), and the number
// of batches that flowed through the stages.
type PipelinePoint struct {
	Config  string // "buffered" or "batch=<n>"
	Wall    time.Duration
	TTFR    time.Duration
	Results int
	Batches int64
}

// PipelineResult is the batch-size sweep for one join workload,
// differentially checked against the buffered baseline.
type PipelineResult struct {
	Workload string
	Points   []PipelinePoint
}

// Pipeline measures what streaming from the staged pipeline buys on
// LANDC ⋈ LANDO: time to first row against the same join run without a
// sink (which delivers nothing until the last refine lands), and total
// wall across batch sizes. Every arm must reproduce the baseline's
// result count exactly.
func (r *Runner) Pipeline() []PipelineResult {
	a, b := r.Layer("LANDC"), r.Layer("LANDO")
	res := PipelineResult{Workload: "LANDC⋈LANDO"}
	r.printf("\nStaged pipeline join (LANDC⋈LANDO, %d+%d objects): time to first row vs batch size\n",
		len(a.Data.Objects), len(b.Data.Objects))
	r.printf("%-12s %12s %12s %10s %10s\n", "config", "wall(ms)", "ttfr(ms)", "results", "batches")

	// Buffered baseline: with no sink the caller holds every pair until
	// refinement finishes, so its first row arrives with its last — TTFR
	// is the whole wall.
	start := time.Now()
	basePairs, _, err := query.PipelineIntersectionJoin(r.ctx(), a, b, query.PipelineOptions{})
	wall := time.Since(start)
	if r.check(err) {
		return nil
	}
	base := len(basePairs)
	res.Points = append(res.Points, PipelinePoint{Config: "buffered", Wall: wall, TTFR: wall, Results: base})
	r.printf("%-12s %12.1f %12.1f %10d %10s\n", "buffered", ms(wall), ms(wall), base, "-")

	for _, batch := range []int{64, 256, 1024, 4096} {
		config := fmt.Sprintf("batch=%d", batch)
		var ttfr time.Duration
		rows := 0
		start := time.Now()
		opt := query.PipelineOptions{
			BatchSize: batch,
			Sink: func(pairs []query.Pair) error {
				if rows == 0 && len(pairs) > 0 {
					ttfr = time.Since(start)
				}
				rows += len(pairs)
				return nil
			},
		}
		pairs, stats, err := query.PipelineIntersectionJoin(r.ctx(), a, b, opt)
		wall := time.Since(start)
		if r.check(err) {
			break
		}
		if rows != base || len(pairs) != base {
			r.check(fmt.Errorf("pipeline %s: streamed %d / returned %d pairs, baseline found %d",
				config, rows, len(pairs), base))
			break
		}
		res.Points = append(res.Points, PipelinePoint{
			Config: config, Wall: wall, TTFR: ttfr, Results: rows,
			Batches: stats.PipelineBatches,
		})
		r.printf("%-12s %12.1f %12.1f %10d %10d\n", config, ms(wall), ms(ttfr), rows, stats.PipelineBatches)
	}
	return []PipelineResult{res}
}

// PipelineRecords flattens the pipeline sweep. TTFR rides in its own
// column so the streaming-latency trajectory is tracked alongside total
// wall run over run.
func PipelineRecords(rows []PipelineResult, scale float64) []BenchRecord {
	var out []BenchRecord
	for _, row := range rows {
		for _, p := range row.Points {
			out = append(out, BenchRecord{
				Experiment: "pipeline", Workload: row.Workload, Tester: p.Config,
				Scale:  scale,
				WallMS: ms(p.Wall), TTFRMS: ms(p.TTFR),
				Results: p.Results,
			})
		}
	}
	return out
}
