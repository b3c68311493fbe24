package query

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/faultinject"
	"repro/internal/geom"
)

// TestSerialJoinsIsolatePanics: the serial entry points run the
// executor's inline schedule on the caller's tester, so a tester that
// panics on every pair test degrades onto software retries instead of
// taking the join down. The retry tester's counters fold into the
// caller's tester, which keeps its Stats partition whole.
func TestSerialJoinsIsolatePanics(t *testing.T) {
	check := func(t *testing.T, tester *core.Tester, got, want []Pair) {
		t.Helper()
		samePairsExact(t, "degraded join", got, want)
		if tester.Stats.Panics == 0 {
			t.Error("no panics recorded despite rate-1 injection")
		}
		if tester.Stats.Quarantined != 0 {
			t.Errorf("%d pairs quarantined; software retries should all succeed", tester.Stats.Quarantined)
		}
		if tester.Stats.Tests == 0 {
			t.Error("software retries were not folded into the caller's tester")
		}
		checkStatsPartition(t, "degraded join", tester.Stats)
	}

	t.Run("intersects", func(t *testing.T) {
		tester := panicky(faultinject.SiteIntersects)
		got, _, err := IntersectionJoinOpt(bg, layerA, layerB, tester, JoinOptions{})
		if err != nil {
			t.Fatal(err)
		}
		check(t, tester, got, softwareOracle(t))
	})
	t.Run("within", func(t *testing.T) {
		d := data.BaseD(layerA.Data, layerB.Data)
		opt := DistanceFilterOptions{Use0Object: true, Use1Object: true}
		want, _, err := WithinDistanceJoin(bg, layerA, layerB, d, core.NewTester(core.Config{DisableHardware: true}), opt)
		if err != nil {
			t.Fatal(err)
		}
		tester := panicky(faultinject.SiteWithinDistance)
		got, _, err := WithinDistanceJoin(bg, layerA, layerB, d, tester, opt)
		if err != nil {
			t.Fatal(err)
		}
		check(t, tester, got, want)
	})
}

// panicky returns a hardware-assisted tester whose every test at site
// panics.
func panicky(site string) *core.Tester {
	inj := faultinject.New(7).Inject(site, faultinject.KindPanic, 1)
	return core.NewTester(core.Config{SWThreshold: core.DefaultSWThreshold, Faults: inj})
}

// TestExecutorDifferentialGrid is the executor's acceptance differential.
// For each predicate — intersects with and without the hull pre-pass,
// within with and without the 0-/1-Object pre-pass — every arm of
// {Workers 1, 4} × {batch 1, 7, default} × {in-memory, snapshot-backed}
// plus the serial entry point must return the same pairs in the same
// order, equal as a set to the nested-loop oracle, with the Stats
// partition whole and the sink stream equal to the returned slice. The
// live composed view holds the same objects at the same canonical
// positions (base prefix plus inserted suffix), so it must match too —
// in the composer's (A, B) order. Run under -race this also covers the
// staged schedule's lazy builds from concurrent workers. The select arm
// runs selections through the same executor; see differentialSelects.
func TestExecutorDifferentialGrid(t *testing.T) {
	da, db := layerA.Data, layerB.Data
	d := data.BaseD(da, db)
	predicates := []struct {
		name   string
		oracle []Pair
		plan   func(x, y *Layer, o PipelineOptions) joinPlan
		serial func(a, b *View, tester *core.Tester) ([]Pair, error)
	}{
		{"intersects", oracleJoin(layerA, layerB),
			func(x, y *Layer, o PipelineOptions) joinPlan { return intersectsPlan(x, y, "join", false, o) },
			func(a, b *View, tester *core.Tester) ([]Pair, error) {
				got, _, err := IntersectionJoinView(bg, a, b, tester, JoinOptions{})
				return got, err
			}},
		{"intersects+hull", oracleJoin(layerA, layerB),
			func(x, y *Layer, o PipelineOptions) joinPlan { return intersectsPlan(x, y, "join", true, o) },
			func(a, b *View, tester *core.Tester) ([]Pair, error) {
				got, _, err := IntersectionJoinView(bg, a, b, tester, JoinOptions{UseHullFilter: true})
				return got, err
			}},
		{"within", oracleWithin(layerA, layerB, d),
			func(x, y *Layer, o PipelineOptions) joinPlan {
				return withinPlan(x, y, d, "within-join", false, false, o)
			},
			func(a, b *View, tester *core.Tester) ([]Pair, error) {
				got, _, err := WithinDistanceJoinView(bg, a, b, d, tester, DistanceFilterOptions{})
				return got, err
			}},
		{"within+bounds", oracleWithin(layerA, layerB, d),
			func(x, y *Layer, o PipelineOptions) joinPlan {
				return withinPlan(x, y, d, "within-join", true, true, o)
			},
			func(a, b *View, tester *core.Tester) ([]Pair, error) {
				got, _, err := WithinDistanceJoinView(bg, a, b, d, tester,
					DistanceFilterOptions{Use0Object: true, Use1Object: true})
				return got, err
			}},
	}

	// Each backing supplies a as a single view and as a live composed view
	// over the same canonical objects, and b as a single view.
	split := len(da.Objects) / 2
	type backing struct {
		name           string
		a, composed, b *View
	}
	var backings []backing
	for _, name := range []string{"memory", "snapshot"} {
		layer := func(ds *data.Dataset) *Layer {
			if name == "snapshot" {
				return snapshotLayer(t, ds, false)
			}
			return NewLayer(ds)
		}
		lv := NewLive(layer(&data.Dataset{Name: da.Name + "-prefix", Objects: da.Objects[:split]}), nil, 0, 0)
		applyScript(t, lv, nil, da.Objects[split:])
		composed := lv.View()
		if _, ok := composed.Single(); ok {
			t.Fatal("live view with inserts claims to be single-component")
		}
		backings = append(backings, backing{name, layer(da).View(), composed, layer(db).View()})
	}

	for _, pc := range predicates {
		t.Run(pc.name, func(t *testing.T) {
			if len(pc.oracle) == 0 {
				t.Fatal("oracle is empty; differential is vacuous")
			}
			for _, composed := range []bool{false, true} {
				var ref []Pair
				refName := ""
				for _, bk := range backings {
					a := bk.a
					if composed {
						a = bk.composed
					}
					for _, workers := range []int{1, 4} {
						for _, batch := range []int{1, 7, 0} {
							name := fmt.Sprintf("composed=%v %s workers=%d batch=%d", composed, bk.name, workers, batch)
							var streamed []Pair
							opt := PipelineOptions{Workers: workers, BatchSize: batch,
								Sink: func(pairs []Pair) error {
									streamed = append(streamed, pairs...)
									return nil
								}}
							got, _, stats, err := joinViews(a, bk.b, opt, func(x, y *Layer, o PipelineOptions) ([]Pair, Cost, core.Stats, error) {
								return runJoin(bg, pc.plan(x, y, o), o, nil)
							})
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							checkStatsPartition(t, name, stats)
							if composed {
								// Each component streams in its own order; the
								// composer returns the union re-sorted.
								samePairsExact(t, name+" stream", sortedPairs(streamed), sortedPairs(got))
							} else {
								samePairsExact(t, name+" stream", streamed, got)
							}
							if stats.StreamRowsEmitted != int64(len(got)) {
								t.Errorf("%s: StreamRowsEmitted = %d, want %d", name, stats.StreamRowsEmitted, len(got))
							}
							if ref == nil {
								ref, refName = got, name
								samePairsExact(t, name+" vs oracle", sortedPairs(got), pc.oracle)
								continue
							}
							samePairsExact(t, name+" vs "+refName, got, ref)
						}
					}
					tester := core.NewTester(core.Config{SWThreshold: core.DefaultSWThreshold})
					got, err := pc.serial(a, bk.b, tester)
					if err != nil {
						t.Fatal(err)
					}
					samePairsExact(t, fmt.Sprintf("composed=%v %s serial vs %s", composed, bk.name, refName), got, ref)
					checkStatsPartition(t, "serial", tester.Stats)
				}
			}
		})
	}
	t.Run("select", differentialSelects)
}

// differentialSelects is the grid's select arm. For each query, every arm
// of {interior level -1, 4} × {hw, sw, hw panicking on every test} ×
// {in-memory, snapshot-backed} × {Sink off, on} must return the same ids
// in the same order — interior hits, then R-tree order — equal as a set to
// the nested-loop oracle, with the sink stream equal to the returned
// slice. Single views run IntersectionSelect on the layer, live composed
// views IntersectionSelectView, which must return the union sorted. The
// layer is large enough that a whole-extent query spans several refine
// batches. A budget abort and a mid-run cancel close each view's arms.
func differentialSelects(t *testing.T) {
	ds := data.MustLoad("LANDC", 0.04)
	split := len(ds.Objects) / 2
	type backing struct {
		name     string
		layer    *Layer
		composed *View
	}
	var backings []backing
	for _, name := range []string{"memory", "snapshot"} {
		layer := func(d *data.Dataset) *Layer {
			if name == "snapshot" {
				return snapshotLayer(t, d, false)
			}
			return NewLayer(d)
		}
		lv := NewLive(layer(&data.Dataset{Name: ds.Name + "-prefix", Objects: ds.Objects[:split]}), nil, 0, 0)
		applyScript(t, lv, nil, ds.Objects[split:])
		backings = append(backings, backing{name, layer(ds), lv.View()})
	}
	oracleLayer := backings[0].layer

	ext := ds.Objects[0].Bounds()
	for _, p := range ds.Objects {
		ext = ext.Union(p.Bounds())
	}
	ext = ext.Expand(1)
	whole := geom.MustPolygon(geom.Pt(ext.MinX, ext.MinY), geom.Pt(ext.MaxX, ext.MinY), geom.Pt(ext.MinX, ext.MaxY))
	queries := append([]*geom.Polygon{whole}, layerB.Data.Objects[:4]...)
	testers := []struct {
		name string
		new  func() *core.Tester
	}{
		{"hw", func() *core.Tester { return core.NewTester(core.Config{SWThreshold: core.DefaultSWThreshold}) }},
		{"sw", func() *core.Tester { return core.NewTester(core.Config{DisableHardware: true}) }},
		{"panic", func() *core.Tester { return panicky(faultinject.SiteIntersects) }},
	}
	run := func(bk backing, composed bool, q *geom.Polygon, tester *core.Tester, opt SelectionOptions) ([]int, Cost, error) {
		if composed {
			return IntersectionSelectView(bg, bk.composed, q, tester, opt)
		}
		return IntersectionSelect(bg, bk.layer, q, tester, opt)
	}

	for qi, q := range queries {
		oracle := oracleSelect(oracleLayer, q)
		if len(oracle) == 0 {
			t.Fatalf("query %d: oracle is empty; differential is vacuous", qi)
		}
		if qi == 0 && len(ds.Objects) <= 2*core.DefaultBatchSize {
			t.Fatalf("whole-extent query has %d candidates; it must span several batches", len(ds.Objects))
		}
		for _, level := range []int{-1, 4} {
			for _, composed := range []bool{false, true} {
				var ref []int
				refName := ""
				for _, bk := range backings {
					for _, tc := range testers {
						for _, sink := range []bool{false, true} {
							name := fmt.Sprintf("query %d level=%d composed=%v %s %s sink=%v", qi, level, composed, bk.name, tc.name, sink)
							tester := tc.new()
							var streamed []int
							opt := SelectionOptions{InteriorLevel: level}
							if sink {
								opt.Sink = func(ids []int) error {
									streamed = append(streamed, ids...)
									return nil
								}
							}
							got, cost, err := run(bk, composed, q, tester, opt)
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							checkStatsPartition(t, name, tester.Stats)
							if cost.Results != len(got) || cost.Candidates < len(got) {
								t.Errorf("%s: cost %+v for %d ids", name, cost, len(got))
							}
							if tc.name == "panic" && (tester.Stats.Panics == 0 || tester.Stats.Quarantined != 0) {
								t.Errorf("%s: panics=%d quarantined=%d, want every test retried in software",
									name, tester.Stats.Panics, tester.Stats.Quarantined)
							}
							if sink {
								if composed {
									streamed = sortedIDs(streamed)
								}
								sameIDsExact(t, name+" stream", streamed, got)
							}
							if want := int64(len(streamed)); tester.Stats.StreamRowsEmitted != want {
								t.Errorf("%s: StreamRowsEmitted = %d, want %d", name, tester.Stats.StreamRowsEmitted, want)
							}
							if ref == nil {
								ref, refName = got, name
								sameIDsExact(t, name+" vs oracle", sortedIDs(got), oracle)
								if composed {
									sameIDsExact(t, name+" order", got, oracle)
								}
								continue
							}
							sameIDsExact(t, name+" vs "+refName, got, ref)
						}
					}
				}
			}
		}
	}

	// A budget abort returns no ids and refines nothing; a sink that
	// cancels the query on its first batch stops it mid-run with a typed
	// partial whose ids are a prefix of the full result and were all
	// streamed.
	for _, bk := range backings {
		for _, composed := range []bool{false, true} {
			name := fmt.Sprintf("composed=%v %s", composed, bk.name)
			tester := swTester()
			streamed := 0
			got, cost, err := run(bk, composed, whole, tester, SelectionOptions{InteriorLevel: -1, MaxCandidates: 5,
				Sink: func(ids []int) error { streamed += len(ids); return nil }})
			var be *BudgetError
			if !errors.As(err, &be) || got != nil || cost.Compared != 0 || tester.Stats.Tests != 0 || streamed != 0 {
				t.Errorf("%s budget: err=%v ids=%d cost=%+v tests=%d streamed=%d, want a bare *BudgetError",
					name, err, len(got), cost, tester.Stats.Tests, streamed)
			}

			full, _, err := run(bk, composed, whole, swTester(), SelectionOptions{InteriorLevel: -1})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(bg)
			var cancelled []int
			got, _, err = func() ([]int, Cost, error) {
				defer cancel()
				opt := SelectionOptions{InteriorLevel: -1, Sink: func(ids []int) error {
					cancelled = append(cancelled, ids...)
					cancel()
					return nil
				}}
				if composed {
					return IntersectionSelectView(ctx, bk.composed, whole, swTester(), opt)
				}
				return IntersectionSelect(ctx, bk.layer, whole, swTester(), opt)
			}()
			var pe *PartialError
			if !errors.As(err, &pe) || !errors.Is(err, context.Canceled) {
				t.Fatalf("%s cancel: err = %v, want a *PartialError wrapping Canceled", name, err)
			}
			if len(got) == 0 || len(got) >= len(full) {
				t.Errorf("%s cancel: %d of %d ids, want a non-empty strict prefix", name, len(got), len(full))
			}
			if composed {
				cancelled = sortedIDs(cancelled)
			} else {
				sameIDsExact(t, name+" cancel prefix", got, full[:len(got)])
			}
			sameIDsExact(t, name+" cancel stream", cancelled, got)
		}
	}
}

func sameIDsExact(t *testing.T, name string, got, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d ids, want %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: id %d = %d, want %d", name, i, got[i], want[i])
		}
	}
}
