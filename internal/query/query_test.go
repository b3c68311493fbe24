package query

import (
	"context"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/geom"
	"repro/internal/sweep"
)

// testLayers builds two small overlapping layers once for the package.
var (
	layerA = NewLayer(data.MustLoad("LANDC", 0.004)) // ~58 objects
	layerB = NewLayer(data.MustLoad("LANDO", 0.002)) // ~67 objects
)

// bg is the uncancellable context used by the correctness tests; the
// cancellation paths are exercised in resilient_test.go.
var bg = context.Background()

func sortedIDs(ids []int) []int {
	out := append([]int(nil), ids...)
	sort.Ints(out)
	return out
}

func sortedPairs(ps []Pair) []Pair {
	out := append([]Pair(nil), ps...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// oracleSelect computes selection results with brute-force software tests.
func oracleSelect(layer *Layer, q *geom.Polygon) []int {
	var ids []int
	for i, p := range layer.Data.Objects {
		if sweep.PolygonsIntersect(q, p, sweep.Options{Algorithm: sweep.BruteForce}) {
			ids = append(ids, i)
		}
	}
	return ids
}

func TestIntersectionSelectMatchesOracle(t *testing.T) {
	queries := data.MustLoad("STATES50", 1)
	sw := core.NewTester(core.Config{DisableHardware: true})
	hw := core.NewTester(core.Config{Resolution: 8})
	for qi := 0; qi < 10; qi++ {
		q := queries.Objects[qi]
		want := oracleSelect(layerA, q)
		for _, tester := range []*core.Tester{sw, hw} {
			for _, level := range []int{-1, 0, 2, 4} {
				got, cost, err := IntersectionSelect(bg, layerA, q, tester, SelectionOptions{InteriorLevel: level})
				if err != nil {
					t.Fatal(err)
				}
				g := sortedIDs(got)
				if len(g) != len(want) {
					t.Fatalf("query %d level %d: %d results, oracle %d", qi, level, len(g), len(want))
				}
				for i := range want {
					if g[i] != want[i] {
						t.Fatalf("query %d level %d: result %d = %d, want %d", qi, level, i, g[i], want[i])
					}
				}
				if cost.Results != len(want) {
					t.Errorf("cost.Results = %d, want %d", cost.Results, len(want))
				}
				if level >= 0 && cost.FilterHits+cost.Compared != cost.Candidates {
					t.Errorf("stage counts inconsistent: %+v", cost)
				}
			}
		}
	}
}

// oracleJoin is the nested-loop brute-force intersection join.
func oracleJoin(a, b *Layer) []Pair {
	var want []Pair
	for i, p := range a.Data.Objects {
		for j, q := range b.Data.Objects {
			if p.Bounds().Intersects(q.Bounds()) &&
				sweep.PolygonsIntersect(p, q, sweep.Options{Algorithm: sweep.BruteForce}) {
				want = append(want, Pair{i, j})
			}
		}
	}
	return want
}

// oracleWithin is the nested-loop brute-force within-distance join.
func oracleWithin(a, b *Layer, d float64) []Pair {
	var want []Pair
	for i, p := range a.Data.Objects {
		for j, q := range b.Data.Objects {
			if dist.MinDistBrute(p, q) <= d {
				want = append(want, Pair{i, j})
			}
		}
	}
	return want
}

func TestIntersectionJoinMatchesOracle(t *testing.T) {
	want := oracleJoin(layerA, layerB)
	if len(want) == 0 {
		t.Fatal("test layers do not overlap; generator broken")
	}
	sw := core.NewTester(core.Config{DisableHardware: true})
	hw := core.NewTester(core.Config{Resolution: 8})
	hwT := core.NewTester(core.Config{Resolution: 16, SWThreshold: 100})
	for _, tester := range []*core.Tester{sw, hw, hwT} {
		got, cost, err := IntersectionJoin(bg, layerA, layerB, tester)
		if err != nil {
			t.Fatal(err)
		}
		g, w := sortedPairs(got), sortedPairs(want)
		if len(g) != len(w) {
			t.Fatalf("join: %d pairs, oracle %d", len(g), len(w))
		}
		for i := range w {
			if g[i] != w[i] {
				t.Fatalf("join pair %d = %v, want %v", i, g[i], w[i])
			}
		}
		if cost.Candidates < cost.Results {
			t.Errorf("candidates %d < results %d", cost.Candidates, cost.Results)
		}
	}
}

func TestWithinDistanceJoinMatchesOracle(t *testing.T) {
	baseD := data.BaseD(layerA.Data, layerB.Data)
	sw := core.NewTester(core.Config{DisableHardware: true})
	hw := core.NewTester(core.Config{Resolution: 8})
	for _, mult := range []float64{0.1, 1.0} {
		d := baseD * mult
		want := oracleWithin(layerA, layerB, d)
		opts := []DistanceFilterOptions{
			{},
			{Use0Object: true},
			{Use0Object: true, Use1Object: true},
		}
		for _, tester := range []*core.Tester{sw, hw} {
			for _, opt := range opts {
				got, cost, err := WithinDistanceJoin(bg, layerA, layerB, d, tester, opt)
				if err != nil {
					t.Fatal(err)
				}
				g, w := sortedPairs(got), sortedPairs(want)
				if len(g) != len(w) {
					t.Fatalf("d=%.2f opt=%+v: %d pairs, oracle %d", d, opt, len(g), len(w))
				}
				for i := range w {
					if g[i] != w[i] {
						t.Fatalf("d=%.2f: pair %d = %v, want %v", d, i, g[i], w[i])
					}
				}
				if opt.Use0Object && cost.FilterHits+cost.Compared != cost.Candidates {
					t.Errorf("stage counts inconsistent: %+v", cost)
				}
			}
		}
	}
}

func TestFiltersReduceComparisons(t *testing.T) {
	baseD := data.BaseD(layerA.Data, layerB.Data)
	sw := core.NewTester(core.Config{DisableHardware: true})
	_, noFilter, err := WithinDistanceJoin(bg, layerA, layerB, baseD, sw, DistanceFilterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, filtered, err := WithinDistanceJoin(bg, layerA, layerB, baseD, sw,
		DistanceFilterOptions{Use0Object: true, Use1Object: true})
	if err != nil {
		t.Fatal(err)
	}
	if filtered.Compared >= noFilter.Compared {
		t.Errorf("filters did not reduce comparisons: %d vs %d", filtered.Compared, noFilter.Compared)
	}
	if filtered.FilterHits == 0 {
		t.Error("0/1-object filters identified no positives at BaseD")
	}
}

func TestCostArithmetic(t *testing.T) {
	c := Cost{MBRFilter: 10, IntermediateFilter: 20, GeometryComparison: 30,
		Candidates: 100, FilterHits: 40, Compared: 60, Results: 50}
	if c.Total() != 60 {
		t.Errorf("Total = %v", c.Total())
	}
	sum := c
	sum.Add(c)
	if sum.Candidates != 200 || sum.Total() != 120 {
		t.Errorf("Add wrong: %+v", sum)
	}
	avg := sum.Scale(2)
	if avg.Candidates != 100 || avg.Total() != 60 {
		t.Errorf("Scale wrong: %+v", avg)
	}
	if z := c.Scale(0); z != c {
		t.Error("Scale(0) should be identity")
	}
}

func TestNewLayer(t *testing.T) {
	if layerA.Index.Len() != len(layerA.Data.Objects) {
		t.Errorf("index size %d != objects %d", layerA.Index.Len(), len(layerA.Data.Objects))
	}
	if err := layerA.Index.Validate(); err != nil {
		t.Error(err)
	}
}
