package query

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/faultinject"
	"repro/internal/geom"
)

// softwareOracle returns the software-only intersection join result, the
// ground truth every degraded configuration must still produce.
func softwareOracle(t *testing.T) []Pair {
	t.Helper()
	sw := core.NewTester(core.Config{DisableHardware: true})
	want, _, err := IntersectionJoin(bg, layerA, layerB, sw)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

func pairSet(pairs []Pair) map[Pair]bool {
	m := make(map[Pair]bool, len(pairs))
	for _, pr := range pairs {
		m[pr] = true
	}
	return m
}

// checkNoGoroutineLeak polls until the goroutine count returns to the
// baseline (the runtime needs a moment to reap exiting goroutines).
func checkNoGoroutineLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Errorf("goroutine leak: %d at start, %d after join", before, runtime.NumGoroutine())
}

// TestParallelJoinRecoversPanickingTester is the regression test for the
// worker-pool deadlock class: before panic isolation, a tester that
// panicked mid-refinement escaped the worker goroutine, killing the whole
// process (an unrecovered panic in the old worker loop; with recover
// anywhere above it, the skipped results-channel send would have hung the
// collector instead). Now every pair's test runs under recover, the pair
// is retried on the software path, and the join completes with the exact
// software result set.
func TestParallelJoinRecoversPanickingTester(t *testing.T) {
	want := pairSet(softwareOracle(t))

	inj := faultinject.New(7).Inject(faultinject.SiteIntersects, faultinject.KindPanic, 1)
	for _, workers := range []int{1, 4} {
		opt := PipelineOptions{
			Workers: workers,
			Tester: func() *core.Tester {
				return core.NewTester(core.Config{DisableHardware: true, Faults: inj})
			},
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
			t.Fatalf("workers=%d: join deadlocked with a panicking tester", workers)
		}
		if err != nil {
			t.Fatalf("workers=%d: join failed: %v", workers, err)
		}
		checkNoGoroutineLeak(t, before)

		if stats.Panics == 0 {
			t.Errorf("workers=%d: no panics recorded despite rate-1 injection", workers)
		}
		if stats.Quarantined != 0 {
			t.Errorf("workers=%d: %d pairs quarantined; software retries should all succeed", workers, stats.Quarantined)
		}
		g := pairSet(got)
		if len(g) != len(want) {
			t.Fatalf("workers=%d: degraded join: %d pairs, software oracle %d", workers, len(g), len(want))
		}
		for pr := range want {
			if !g[pr] {
				t.Fatalf("workers=%d: degraded join lost pair %v", workers, pr)
			}
		}
	}
}

// testsOf runs test as the whole per-pair test and as the refine half;
// the filter half leaves every pair to refinement.
func testsOf(test func(*core.Tester, Pair) bool) pairTests {
	return pairTests{
		filter: func(*core.Tester, Pair) core.Verdict { return core.VerdictUndecided },
		refine: test,
		full:   test,
	}
}

// TestParallelRefineRetriesOnSoftware checks the retry tester's exact
// configuration: hardware disabled, fault injection disarmed, everything
// else inherited from the worker tester.
func TestParallelRefineRetriesOnSoftware(t *testing.T) {
	candidates := make([]Pair, 100)
	for i := range candidates {
		candidates[i] = Pair{i, i}
	}
	inj := faultinject.New(1) // armed with nothing; only its presence is checked
	tests := testsOf(func(tt *core.Tester, pr Pair) bool {
		cfg := tt.Config()
		if !cfg.DisableHardware {
			panic("primary path poisoned")
		}
		if cfg.Faults != nil {
			t.Error("retry tester still carries the fault injector")
		}
		if cfg.SWThreshold != 123 {
			t.Errorf("retry tester lost configuration: SWThreshold = %d", cfg.SWThreshold)
		}
		return true
	})
	for _, workers := range []int{1, 3} {
		opt := PipelineOptions{
			Workers: workers,
			Tester: func() *core.Tester {
				return core.NewTester(core.Config{Resolution: 4, SWThreshold: 123, Faults: inj})
			},
		}
		got, _, stats, err := refineJoin(bg, "test", nil, candidates, tests, opt, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(candidates) {
			t.Fatalf("workers=%d: retry kept %d of %d pairs", workers, len(got), len(candidates))
		}
		if stats.Panics != int64(len(candidates)) {
			t.Errorf("workers=%d: Panics = %d, want %d", workers, stats.Panics, len(candidates))
		}
		if stats.Quarantined != 0 {
			t.Errorf("workers=%d: Quarantined = %d, want 0", workers, stats.Quarantined)
		}
	}
}

// TestParallelRefineQuarantinesPoisonPair: a pair that panics on the
// software retry too is dropped and counted, and every other pair is
// unaffected.
func TestParallelRefineQuarantinesPoisonPair(t *testing.T) {
	candidates := make([]Pair, 100)
	for i := range candidates {
		candidates[i] = Pair{i, i}
	}
	poison := Pair{13, 13}
	tests := testsOf(func(_ *core.Tester, pr Pair) bool {
		if pr == poison {
			panic("poisoned geometry")
		}
		return pr.A%2 == 0
	})
	want := 0
	for _, pr := range candidates {
		if pr.A%2 == 0 && pr != poison {
			want++
		}
	}
	for _, workers := range []int{1, 4} {
		opt := PipelineOptions{Workers: workers, Tester: func() *core.Tester {
			return core.NewTester(core.Config{DisableHardware: true})
		}}
		got, _, stats, err := refineJoin(bg, "test", nil, candidates, tests, opt, nil)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Panics != 1 || stats.Quarantined != 1 {
			t.Errorf("workers=%d: Panics/Quarantined = %d/%d, want 1/1", workers, stats.Panics, stats.Quarantined)
		}
		g := pairSet(got)
		if len(g) != want {
			t.Errorf("workers=%d: %d pairs kept, want %d", workers, len(g), want)
		}
		if g[poison] {
			t.Errorf("workers=%d: quarantined pair leaked into the result set", workers)
		}
	}
}

// TestParallelJoinCancellation exercises mid-join cancellation: with every
// refinement slowed by an injected delay, cancelling the context must
// return promptly (long before the remaining work), leak no goroutines,
// and report partial progress through a typed *PartialError.
func TestParallelJoinCancellation(t *testing.T) {
	want := pairSet(softwareOracle(t))
	for _, workers := range []int{1, 2} {
		inj := faultinject.New(3).
			Inject(faultinject.SiteIntersects, faultinject.KindDelay, 1).
			SetDelay(2 * time.Millisecond)
		opt := PipelineOptions{
			Workers: workers,
			Tester: func() *core.Tester {
				return core.NewTester(core.Config{DisableHardware: true, Faults: inj})
			},
		}
		ctx, cancel := context.WithCancel(bg)
		go func() {
			time.Sleep(10 * time.Millisecond)
			cancel()
		}()
		before := runtime.NumGoroutine()
		start := time.Now()
		got, stats, err := PipelineIntersectionJoin(ctx, layerA, layerB, opt)
		elapsed := time.Since(start)
		checkNoGoroutineLeak(t, before)

		var pe *PartialError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want *PartialError", workers, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err does not unwrap to context.Canceled: %v", workers, err)
		}
		if pe.Done >= pe.Total {
			t.Errorf("workers=%d: PartialError reports full completion: %d/%d", workers, pe.Done, pe.Total)
		}
		// The whole join would take Total×2ms/workers; prompt cancellation
		// (within one cancelStride of tests inline) must beat that by a
		// wide margin. The bound is loose for CI noise.
		if budget := time.Duration(pe.Total) * time.Millisecond; elapsed > budget {
			t.Errorf("workers=%d: cancellation took %v, full join would be ~%v", workers, elapsed, budget)
		}
		if stats.Tests == 0 {
			t.Errorf("workers=%d: no partial stats returned", workers)
		}
		// Partial results must still be sound: every returned pair is a
		// real software-verified intersection.
		for _, pr := range got {
			if !want[pr] {
				t.Errorf("workers=%d: partial result %v is not in the software result set", workers, pr)
			}
		}
	}
}

// TestSerialCancellation covers the serial pipelines: an already-cancelled
// context stops each query at its next stride check with a typed partial
// error, returning whatever was computed.
func TestSerialCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(bg)
	cancel()
	sw := core.NewTester(core.Config{DisableHardware: true})

	q := layerB.Data.Objects[0]
	_, _, err := IntersectionSelect(ctx, layerA, q, sw, SelectionOptions{InteriorLevel: -1})
	var pe *PartialError
	if !errors.As(err, &pe) || !errors.Is(err, context.Canceled) {
		t.Errorf("select: err = %v, want PartialError wrapping Canceled", err)
	}

	_, _, err = IntersectionJoin(ctx, layerA, layerB, sw)
	if !errors.As(err, &pe) || !errors.Is(err, context.Canceled) {
		t.Errorf("join: err = %v, want PartialError wrapping Canceled", err)
	}

	_, _, err = WithinDistanceJoin(ctx, layerA, layerB, 1, sw, DistanceFilterOptions{})
	if !errors.As(err, &pe) || !errors.Is(err, context.Canceled) {
		t.Errorf("within-join: err = %v, want PartialError wrapping Canceled", err)
	}

	_, _, err = OverlayAreaJoin(ctx, layerA, layerB, sw)
	if !errors.As(err, &pe) || !errors.Is(err, context.Canceled) {
		t.Errorf("overlay-join: err = %v, want PartialError wrapping Canceled", err)
	}

	knn, err := KNearest(ctx, layerA, q, 5, dist.Options{})
	if !errors.As(err, &pe) || !errors.Is(err, context.Canceled) {
		t.Errorf("knn: err = %v, want PartialError wrapping Canceled", err)
	}
	if len(knn) >= 5 {
		t.Errorf("cancelled knn returned a full result set (%d)", len(knn))
	}
}

// TestCandidateBudget checks the fail-fast resource guard: a join whose
// MBR filtering overflows the budget aborts with a typed *BudgetError
// before any refinement work.
func TestCandidateBudget(t *testing.T) {
	sw := core.NewTester(core.Config{DisableHardware: true})

	pairs, cost, err := IntersectionJoinOpt(bg, layerA, layerB, sw, JoinOptions{MaxCandidates: 1})
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want *BudgetError", err)
	}
	if be.Budget != 1 || be.Candidates <= be.Budget {
		t.Errorf("BudgetError fields: %+v", be)
	}
	if pairs != nil {
		t.Error("budget-tripped join returned results")
	}
	if cost.Compared != 0 {
		t.Errorf("budget-tripped join did refinement work: %+v", cost)
	}
	if sw.Stats.Tests != 0 {
		t.Errorf("budget-tripped join ran %d pair tests", sw.Stats.Tests)
	}

	_, _, err = PipelineIntersectionJoin(bg, layerA, layerB, PipelineOptions{Workers: 4, MaxCandidates: 1})
	if !errors.As(err, &be) {
		t.Errorf("pipeline join: err = %v, want *BudgetError", err)
	}

	q := layerB.Data.Objects[0]
	_, _, err = IntersectionSelect(bg, layerA, q, sw, SelectionOptions{InteriorLevel: -1, MaxCandidates: 1})
	if !errors.As(err, &be) {
		t.Errorf("select: err = %v, want *BudgetError", err)
	}

	// A budget above the candidate count changes nothing.
	got, _, err := IntersectionJoinOpt(bg, layerA, layerB, sw, JoinOptions{MaxCandidates: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if len(pairSet(got)) != len(pairSet(softwareOracle(t))) {
		t.Error("generous budget changed the result set")
	}
}

// TestAcceptanceFaultedJoinUnderDeadline is the issue's acceptance
// scenario: an intersection join with per-pair fault injection (panics
// and delays) running under a cancellable context.
//
// Part 1 — faults only: the join completes, recovers every panic onto the
// software path, and produces exactly the software-only result set.
// Part 2 — faults plus a short deadline: the join returns promptly with a
// typed partial error, partial stats, and no goroutine leak.
func TestAcceptanceFaultedJoinUnderDeadline(t *testing.T) {
	want := pairSet(softwareOracle(t))
	newOpt := func(workers int, seed int64, delay time.Duration) PipelineOptions {
		inj := faultinject.New(seed).
			Inject(faultinject.SiteIntersects, faultinject.KindPanic, 0.3).
			Inject(faultinject.SiteIntersects, faultinject.KindDelay, 0.2).
			Inject(faultinject.SiteRenderDraw, faultinject.KindPanic, 0.02).
			SetDelay(delay)
		return PipelineOptions{
			Workers: workers,
			Tester: func() *core.Tester {
				// Hardware path armed, threshold 0: every non-trivial pair
				// exercises the raster hook too.
				return core.NewTester(core.Config{Resolution: 8, SWThreshold: 0, Faults: inj})
			},
		}
	}

	for _, workers := range []int{1, 4} {
		// Part 1: panics and delays, no deadline — exact software results.
		got, stats, err := PipelineIntersectionJoin(bg, layerA, layerB, newOpt(workers, 11, 10*time.Microsecond))
		if err != nil {
			t.Fatalf("workers=%d: faulted join failed: %v", workers, err)
		}
		if stats.Panics == 0 {
			t.Errorf("workers=%d: fault schedule fired no panics; raise the rate or fix the seed", workers)
		}
		if stats.Quarantined != 0 {
			t.Errorf("workers=%d: %d pairs quarantined; injected faults must not survive the software retry", workers, stats.Quarantined)
		}
		g := pairSet(got)
		if len(g) != len(want) {
			t.Fatalf("workers=%d: faulted join: %d pairs, software oracle %d", workers, len(g), len(want))
		}
		for pr := range want {
			if !g[pr] {
				t.Fatalf("workers=%d: faulted join lost pair %v", workers, pr)
			}
		}

		// Part 2: same fault schedule under a deadline that expires mid-join.
		ctx, cancel := context.WithTimeout(bg, 5*time.Millisecond)
		before := runtime.NumGoroutine()
		got, _, err = PipelineIntersectionJoin(ctx, layerA, layerB, newOpt(workers, 11, 2*time.Millisecond))
		cancel()
		checkNoGoroutineLeak(t, before)
		var pe *PartialError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: deadlined join: err = %v, want *PartialError", workers, err)
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("workers=%d: deadlined join: err does not unwrap to DeadlineExceeded: %v", workers, err)
		}
		if pe.Done >= pe.Total {
			t.Errorf("workers=%d: deadlined join claims completion: %d/%d", workers, pe.Done, pe.Total)
		}
		for _, pr := range got {
			if !want[pr] {
				t.Errorf("workers=%d: partial result %v not in the software result set", workers, pr)
			}
		}
	}
}

// TestWrongAnswerTrustBoundary documents the hardware-filter trust
// boundary with both flip directions (see internal/faultinject's package
// comment):
//
//   - overlap → "no overlap" silently loses a result: the design trusts
//     conservative rasterization, and nothing cheaper than the software
//     test could catch the lie;
//   - "no overlap" → overlap is absorbed: an inconclusive verdict always
//     goes to the exact software test.
func TestWrongAnswerTrustBoundary(t *testing.T) {
	// Crossing bars: boundaries intersect, neither contains the other's
	// vertices, so the pair reaches the hardware filter.
	horiz := geom.MustPolygon(geom.Pt(0, 4), geom.Pt(10, 4), geom.Pt(10, 6), geom.Pt(0, 6))
	vert := geom.MustPolygon(geom.Pt(4, 0), geom.Pt(6, 0), geom.Pt(6, 10), geom.Pt(4, 10))
	// Disjoint slanted strips with overlapping MBRs and no containment.
	stripLo := geom.MustPolygon(geom.Pt(0, 0), geom.Pt(10, 4), geom.Pt(10, 6), geom.Pt(0, 2))
	stripHi := geom.MustPolygon(geom.Pt(0, 5), geom.Pt(10, 9), geom.Pt(10, 11), geom.Pt(0, 7))

	honest := core.NewTester(core.Config{Resolution: 32, SWThreshold: 0})
	if !honest.Intersects(horiz, vert) {
		t.Fatal("honest hardware: crossing bars must intersect")
	}
	if honest.Intersects(stripLo, stripHi) {
		t.Fatal("honest hardware: disjoint strips must not intersect")
	}

	lying := func() *core.Tester {
		inj := faultinject.New(5).Inject(faultinject.SiteHWFilter, faultinject.KindWrongAnswer, 1)
		return core.NewTester(core.Config{Resolution: 32, SWThreshold: 0, Faults: inj})
	}

	// Direction 1: true overlap flipped to reject — the result is silently
	// lost. This is the trust boundary: a hardware filter that lies in the
	// conservative direction cannot be caught.
	if lying().Intersects(horiz, vert) {
		t.Error("flipped overlap verdict was not trusted; expected the (wrong) reject to stand")
	}

	// Direction 2: reject flipped to inconclusive — absorbed, because
	// inconclusive pairs are always decided by the exact software test.
	if lying().Intersects(stripLo, stripHi) {
		t.Error("flipped reject verdict leaked a false positive past the software test")
	}
}

// TestFaultedHWSelectStillExact: delays and wrong-answers in the
// *inconclusive* direction never change selection results; the software
// stage remains the decider.
func TestFaultedHWSelectStillExact(t *testing.T) {
	q := layerB.Data.Objects[0]
	sw := core.NewTester(core.Config{DisableHardware: true})
	want, _, err := IntersectionSelect(bg, layerA, q, sw, SelectionOptions{InteriorLevel: -1})
	if err != nil {
		t.Fatal(err)
	}
	inj := faultinject.New(9).
		Inject(faultinject.SiteIntersects, faultinject.KindDelay, 0.5).
		SetDelay(time.Microsecond)
	faulted := core.NewTester(core.Config{Resolution: 8, SWThreshold: 0, Faults: inj})
	got, _, err := IntersectionSelect(bg, layerA, q, faulted, SelectionOptions{InteriorLevel: -1})
	if err != nil {
		t.Fatal(err)
	}
	gs, ws := sortedIDs(got), sortedIDs(want)
	if len(gs) != len(ws) {
		t.Fatalf("delayed select: %d results, want %d", len(gs), len(ws))
	}
	for i := range ws {
		if gs[i] != ws[i] {
			t.Fatalf("delayed select result %d = %d, want %d", i, gs[i], ws[i])
		}
	}
}
