package query

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/faultinject"
)

// TestSerialJoinsIsolatePanics: the serial entry points run the
// executor's inline schedule on the caller's tester, so a tester that
// panics on every pair test degrades onto software retries instead of
// taking the join down. The retry tester's counters fold into the
// caller's tester, which keeps its Stats partition whole.
func TestSerialJoinsIsolatePanics(t *testing.T) {
	panicky := func(site string) *core.Tester {
		inj := faultinject.New(7).Inject(site, faultinject.KindPanic, 1)
		return core.NewTester(core.Config{SWThreshold: core.DefaultSWThreshold, Faults: inj})
	}
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
// staged schedule's lazy builds from concurrent workers.
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
}
