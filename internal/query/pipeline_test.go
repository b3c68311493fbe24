package query

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/faultinject"
)

// samePairsExact requires element-wise equality including order — the
// pipeline's bit-identical contract, not just set equality.
func samePairsExact(t *testing.T, name string, got, want []Pair) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d pairs, want %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: pair %d = %v, want %v", name, i, got[i], want[i])
		}
	}
}

func checkStatsPartition(t *testing.T, name string, s core.Stats) {
	t.Helper()
	accounted := s.MBRRejects + s.IntervalTrueHits + s.IntervalRejects + s.PIPHits + s.SigRejects + s.SWDirect +
		s.HWRejects + s.HWPassed + s.HWFallbacks + s.BreakerOpenSkips
	if accounted != s.Tests {
		t.Errorf("%s: stats do not partition tests: %+v", name, s)
	}
}

// TestPipelineJoinMatchesSerial is the core differential: the executor
// must return the serial entry point's result bit-identically (same pairs,
// same order) across batch sizes and worker counts — the inline and the
// staged schedule alike.
func TestPipelineJoinMatchesSerial(t *testing.T) {
	want, _, err := IntersectionJoin(bg, layerA, layerB, swTester())
	if err != nil {
		t.Fatal(err)
	}
	sortPairsByOuter(want)
	for _, batch := range []int{1, 7, 64, 4096} {
		for _, workers := range []int{1, 4} {
			name := fmt.Sprintf("batch=%d workers=%d", batch, workers)
			opt := PipelineOptions{Workers: workers, BatchSize: batch}
			got, stats, err := PipelineIntersectionJoin(bg, layerA, layerB, opt)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			samePairsExact(t, name, got, want)
			checkStatsPartition(t, name, stats)
			if stats.PipelineBatches == 0 {
				t.Errorf("%s: no pipeline batches recorded", name)
			}
		}
	}
}

// TestPipelineWithinMatchesSerial repeats the differential for the
// within-distance join.
func TestPipelineWithinMatchesSerial(t *testing.T) {
	d := data.BaseD(layerA.Data, layerB.Data)
	want, _, err := WithinDistanceJoin(bg, layerA, layerB, d, swTester(), DistanceFilterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sortPairsByOuter(want)
	for _, batch := range []int{3, 256} {
		for _, workers := range []int{1, 4} {
			name := fmt.Sprintf("batch=%d workers=%d", batch, workers)
			opt := PipelineOptions{Workers: workers, BatchSize: batch}
			got, stats, err := PipelineWithinDistanceJoin(bg, layerA, layerB, d, opt)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			samePairsExact(t, name, got, want)
			checkStatsPartition(t, name, stats)
		}
	}
}

// TestPipelineConfigKnobs verifies the batch-size knob on both
// schedules: the same small batch cuts the same batches inline and
// staged, with identical results and identical stats partitions.
func TestPipelineConfigKnobs(t *testing.T) {
	want, _, err := IntersectionJoin(bg, layerA, layerB, swTester())
	if err != nil {
		t.Fatal(err)
	}
	sortPairsByOuter(want)
	batches := map[int]int64{}
	for _, workers := range []int{1, 4} {
		name := fmt.Sprintf("workers=%d", workers)
		opt := PipelineOptions{Workers: workers, BatchSize: 5, Tester: swTester}
		got, stats, err := PipelineIntersectionJoin(bg, layerA, layerB, opt)
		if err != nil {
			t.Fatal(err)
		}
		samePairsExact(t, name, got, want)
		checkStatsPartition(t, name, stats)
		// Batch 5 over hundreds of candidates must cut more than one batch.
		if stats.PipelineBatches < 2 {
			t.Errorf("%s: PipelineBatches = %d, want ≥ 2 with batch size 5", name, stats.PipelineBatches)
		}
		batches[workers] = stats.PipelineBatches
	}
	if batches[1] != batches[4] {
		t.Errorf("inline cut %d batches, staged %d; both schedules must cut the same batches", batches[1], batches[4])
	}
}

// TestPipelineSinkStreamsExactResult pins the streaming contract: the
// concatenation of sink batches equals the returned slice exactly, and
// the emission counters account for every streamed row.
func TestPipelineSinkStreamsExactResult(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var streamed []Pair
		calls := 0
		opt := PipelineOptions{
			Workers:   workers,
			BatchSize: 16,
			Sink: func(pairs []Pair) error {
				calls++
				streamed = append(streamed, pairs...) // copy: the slice is reused
				return nil
			},
		}
		got, stats, err := PipelineIntersectionJoin(bg, layerA, layerB, opt)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("workers=%d", workers)
		samePairsExact(t, name+" stream", streamed, got)
		if stats.StreamRowsEmitted != int64(len(got)) {
			t.Errorf("%s: StreamRowsEmitted = %d, want %d", name, stats.StreamRowsEmitted, len(got))
		}
		if calls < 2 {
			t.Errorf("%s: sink called %d times; batch 16 should stream incrementally", name, calls)
		}
	}
}

// TestPipelineSinkErrorWindsDown exercises the streaming wind-down: a
// failing sink must stop the join with a typed partial error carrying the
// sink's error, without leaking a single pipeline goroutine.
func TestPipelineSinkErrorWindsDown(t *testing.T) {
	boom := errors.New("client went away")
	full, _, err := PipelineIntersectionJoin(bg, layerA, layerB, PipelineOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	fullSet := pairSet(full)
	for _, workers := range []int{1, 4} {
		before := runtime.NumGoroutine()
		opt := PipelineOptions{
			Workers:   workers,
			BatchSize: 4,
			Sink: func(pairs []Pair) error {
				return boom
			},
		}
		got, _, err := PipelineIntersectionJoin(bg, layerA, layerB, opt)
		var pe *PartialError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want *PartialError", workers, err)
		}
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: partial error does not carry the sink error: %v", workers, err)
		}
		if pe.Total == 0 {
			t.Errorf("workers=%d: partial error lost the candidate total", workers)
		}
		// The failed batch's pairs never streamed, so the returned slice is
		// whatever drained before wind-down; it must still be a subset of
		// the full result.
		for _, pr := range got {
			if !fullSet[pr] {
				t.Fatalf("workers=%d: wind-down emitted %v, not in the full result", workers, pr)
			}
		}
		checkNoGoroutineLeak(t, before)
	}
}

// TestPipelineCancellationPartial cancels mid-stream and requires the
// typed partial with the cancellation cause, plus full goroutine
// wind-down.
func TestPipelineCancellationPartial(t *testing.T) {
	for _, workers := range []int{1, 2} {
		before := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(bg)
		opt := PipelineOptions{
			Workers:   workers,
			BatchSize: 2,
			Sink: func(pairs []Pair) error {
				cancel() // first streamed batch pulls the plug
				return nil
			},
		}
		_, _, err := PipelineIntersectionJoin(ctx, layerA, layerB, opt)
		cancel()
		var pe *PartialError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want *PartialError", workers, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: partial error cause = %v, want context.Canceled", workers, err)
		}
		checkNoGoroutineLeak(t, before)
	}
}

// TestPipelineRecoversPanickingTester mirrors the parallel-path panic
// regression: a tester that panics on every intersection test (filter
// stage) must be quarantined onto software retries, with the exact
// software result set and zero quarantined pairs.
func TestPipelineRecoversPanickingTester(t *testing.T) {
	want := pairSet(softwareOracle(t))
	inj := faultinject.New(7).Inject(faultinject.SiteIntersects, faultinject.KindPanic, 1)
	opt := PipelineOptions{
		Workers: 4,
		Tester: func() *core.Tester {
			return core.NewTester(core.Config{DisableHardware: true, Faults: inj})
		},
		BatchSize: 8,
	}
	before := runtime.NumGoroutine()
	done := make(chan struct{})
	var (
		got   []Pair
		stats core.Stats
		err   error
	)
	go func() {
		defer close(done)
		got, stats, err = PipelineIntersectionJoin(bg, layerA, layerB, opt)
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("pipeline join deadlocked with a panicking tester")
	}
	if err != nil {
		t.Fatalf("join failed: %v", err)
	}
	checkNoGoroutineLeak(t, before)
	if stats.Panics == 0 {
		t.Error("no panics recorded despite rate-1 injection")
	}
	if stats.Quarantined != 0 {
		t.Errorf("%d pairs quarantined; software retries should all succeed", stats.Quarantined)
	}
	g := pairSet(got)
	if len(g) != len(want) {
		t.Fatalf("degraded join: %d pairs, software oracle %d", len(g), len(want))
	}
	for pr := range want {
		if !g[pr] {
			t.Fatalf("degraded join lost pair %v", pr)
		}
	}
}

// TestPipelineViewComposition runs the composed-view path (live view with
// deletes and inserts) through the pipeline and requires parity with the
// serial composed join, streamed and returned.
func TestPipelineViewComposition(t *testing.T) {
	deletes := map[uint64]bool{3: true, 17: true, 40: true}
	inserts := layerB.Data.Objects[:8]
	lv := NewLive(layerA, nil, 0, 0)
	applyScript(t, lv, deletes, inserts)
	v := lv.View()
	if _, ok := v.Single(); ok {
		t.Fatal("mutated view claims to be single-component")
	}

	want, _, err := IntersectionJoinView(bg, v, layerB.View(), swTester(), JoinOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var streamed []Pair
	opt := PipelineOptions{
		Workers:   4,
		BatchSize: 16,
		Sink: func(pairs []Pair) error {
			streamed = append(streamed, pairs...)
			return nil
		},
	}
	got, _, err := PipelineIntersectionJoinView(bg, v, layerB.View(), opt)
	if err != nil {
		t.Fatal(err)
	}
	samePairsExact(t, "composed", got, want)
	// Streamed union is the same set (stream order is per-component, the
	// returned slice is re-sorted).
	sg, sw := sortedPairs(streamed), sortedPairs(want)
	samePairsExact(t, "composed stream", sg, sw)
}
