package query

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
)

func TestParallelIntersectionJoinMatchesSerial(t *testing.T) {
	want := oracleJoin(layerA, layerB)
	for _, workers := range []int{0, 1, 2, 4, 7} {
		got, stats, err := PipelineIntersectionJoin(bg, layerA, layerB, PipelineOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		samePairsExact(t, fmt.Sprintf("workers=%d", workers), sortedPairs(got), want)
		if stats.Tests == 0 {
			t.Errorf("workers=%d: no stats gathered", workers)
		}
	}
}

func TestParallelWithinDistanceJoinMatchesSerial(t *testing.T) {
	d := data.BaseD(layerA.Data, layerB.Data)
	want := oracleWithin(layerA, layerB, d)
	for _, workers := range []int{1, 4} {
		name := fmt.Sprintf("workers=%d", workers)
		got, stats, err := PipelineWithinDistanceJoin(bg, layerA, layerB, d, PipelineOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		samePairsExact(t, name, sortedPairs(got), want)
		// Every test was accounted to exactly one resolution path.
		checkStatsPartition(t, name, stats)
	}
}

// TestParallelCustomTester: the factory runs once per worker — one for
// the inline schedule, one per filter and refine worker for the staged
// one — so the counter must be atomic.
func TestParallelCustomTester(t *testing.T) {
	for _, tc := range []struct{ workers, want int32 }{{1, 1}, {4, 4 + 2}} {
		var made atomic.Int32
		opt := PipelineOptions{
			Workers: int(tc.workers),
			// Small batches give every refine worker a batch.
			BatchSize: 8,
			Tester: func() *core.Tester {
				made.Add(1)
				return core.NewTester(core.Config{DisableHardware: true})
			},
		}
		if _, _, err := PipelineIntersectionJoin(bg, layerA, layerB, opt); err != nil {
			t.Fatal(err)
		}
		if n := made.Load(); n != tc.want {
			t.Errorf("workers=%d: tester factory called %d times, want %d", tc.workers, n, tc.want)
		}
	}
}

func TestParallelEmptyLayers(t *testing.T) {
	empty := NewLayer(&data.Dataset{Name: "empty"})
	for _, workers := range []int{1, 4} {
		pairs, _, err := PipelineIntersectionJoin(bg, empty, layerB, PipelineOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if len(pairs) != 0 {
			t.Errorf("workers=%d: empty layer produced pairs", workers)
		}
	}
}

func BenchmarkParallelJoin(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("w%d", workers), func(b *testing.B) {
			for range b.N {
				_, _, _ = PipelineIntersectionJoin(bg, layerA, layerB, PipelineOptions{Workers: workers})
			}
		})
	}
}
