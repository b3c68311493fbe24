package main

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/geom"
	"repro/internal/query"
)

// Scale is the dataset scale every workload runs at: the smallest one at
// which the interval filter's cold build and warm win both show.
const scale = 0.05

// layerNames are the served names of the four static layers, in the
// order selections rotate over them; datasetOf maps them to the paper's
// generator specs.
var layerNames = []string{"landc", "lando", "water", "prism"}

var datasetOf = map[string]string{"landc": "LANDC", "lando": "LANDO", "water": "WATER", "prism": "PRISM"}

// withinD is the within-distance join's distance; the fleet's
// replication margin must be at least this.
const withinD = 1.0

// joinPairs are the two intersection joins the join and fleet workloads
// run: mostly-intersecting LANDC⋈LANDO (interval true hits) and
// near-miss WATER⋈PRISM (raster rejects plus sweep).
var joinPairs = [][2]string{{"landc", "lando"}, {"water", "prism"}}

const (
	numQueries = 512 // seeded query polygons per run
	numInserts = 256 // seeded insert blobs the ingest writer cycles through
	coldBlob   = numInserts
	// coldQuery is the index of the first of numColdQueries more query
	// polygons, the same for every seed, that the select workload's cold
	// phase runs: cold_cpu_ms then compares the same queries across seeds,
	// as the other workloads' cold phases do.
	coldQuery      = numQueries
	numColdQueries = 32
)

// inputs are everything a run derives from its seed, plus the software
// oracle that checks the program's answers.
type inputs struct {
	seed int64
	sets map[string]*data.Dataset

	// queries are the select polygons as sent on the wire and as parsed
	// back from that text (the oracle answers the parsed form, so WKT
	// formatting can never make a correct reply look wrong).
	queryWKT []string
	queries  []*geom.Polygon

	inserts   []*geom.Polygon
	insertWKT []string

	oracle *oracle
}

// generate builds the four static layers. Their generator seeds are the
// paper specs' own (see NOTES.md: seed-shifted layers move join cost by
// up to 3x between seeds, more than any regression bound).
func generate() (map[string]*data.Dataset, error) {
	sets := map[string]*data.Dataset{}
	for _, name := range layerNames {
		spec, err := data.PaperSpec(datasetOf[name], scale)
		if err != nil {
			return nil, err
		}
		d, err := data.Generate(spec)
		if err != nil {
			return nil, fmt.Errorf("generate %s: %w", name, err)
		}
		sets[name] = d
	}
	return sets, nil
}

// blobs draws n seeded blobs with radius in [rmin, rmax) and vertex count
// in [vmin, vmax), centred uniformly over data.Domain, returned with the
// WKT text sent on the wire and the polygon parsed back from it. With
// inside set, blobs whose MBR leaves data.Domain are redrawn.
func blobs(rng *rand.Rand, n int, rmin, rmax float64, vmin, vmax int, inside bool) ([]string, []*geom.Polygon, error) {
	wkts := make([]string, 0, n)
	polys := make([]*geom.Polygon, 0, n)
	dom := data.Domain
	for len(polys) < n {
		c := geom.Point{
			X: dom.MinX + rng.Float64()*(dom.MaxX-dom.MinX),
			Y: dom.MinY + rng.Float64()*(dom.MaxY-dom.MinY),
		}
		r := rmin + rng.Float64()*(rmax-rmin)
		p, err := data.Blob(rng, c, r, vmin+rng.Intn(vmax-vmin))
		if err != nil {
			continue // degenerate draw; the next one replaces it
		}
		w := p.WKT()
		q, err := geom.ParsePolygonWKT(w)
		if err != nil {
			return nil, nil, fmt.Errorf("query polygon does not round-trip through WKT: %w", err)
		}
		if inside && !dom.ContainsRect(q.Bounds()) {
			continue
		}
		wkts = append(wkts, w)
		polys = append(polys, q)
	}
	return wkts, polys, nil
}

func newInputs(seed int64, withInserts bool) (*inputs, error) {
	sets, err := generate()
	if err != nil {
		return nil, err
	}
	in := &inputs{seed: seed, sets: sets}
	rng := rand.New(rand.NewSource(seed))
	if in.queryWKT, in.queries, err = blobs(rng, numQueries, 5, 25, 16, 64, false); err != nil {
		return nil, err
	}
	w, p, err := blobs(rand.New(rand.NewSource(0)), numColdQueries, 5, 25, 16, 64, false)
	if err != nil {
		return nil, err
	}
	in.queryWKT, in.queries = append(in.queryWKT, w...), append(in.queries, p...)
	if withInserts {
		// Inserts stay inside the domain: a live delta's interval grid is
		// fitted to the delta's own bounds, and one object past the
		// domain's left edge doubles that grid and halves the cost of
		// every view rebuild (see NOTES.md), which would split seeds into
		// two populations.
		if in.insertWKT, in.inserts, err = blobs(rng, numInserts, 1, 4, 8, 24, true); err != nil {
			return nil, err
		}
		// One more blob, the same for every seed, for the ingest cold
		// phase (index coldBlob).
		w, p, err := blobs(rand.New(rand.NewSource(0)), 1, 1, 4, 8, 24, true)
		if err != nil {
			return nil, err
		}
		in.insertWKT, in.inserts = append(in.insertWKT, w...), append(in.inserts, p...)
	}
	in.oracle, err = newOracle(in)
	return in, err
}

// oracle holds software-only answers: testers with the hardware filter
// disabled and joins with the interval filter off, so no approximate
// verdict of the program under test is trusted to check itself.
type oracle struct {
	// selectIDs[layer][q] is the sorted answer of select layer queries[q].
	selectIDs map[string][][]int
	// joinPairs[a+" "+b] is the intersection join's pair set.
	joinPairs map[string]map[[2]int]bool
	// withinPairs is within water prism withinD.
	withinPairs map[[2]int]bool

	// Ingest bounds: insertHitsQuery[i][q] says insert blob i intersects
	// query q; insertPrismPairs[i] counts PRISM objects blob i intersects.
	insertHitsQuery  [][]bool
	insertPrismPairs []int
}

func swTester() *core.Tester { return core.NewTester(core.Config{DisableHardware: true}) }

func pairSet(ps []query.Pair) map[[2]int]bool {
	m := make(map[[2]int]bool, len(ps))
	for _, p := range ps {
		m[[2]int{p.A, p.B}] = true
	}
	return m
}

func newOracle(in *inputs) (*oracle, error) {
	ctx := context.Background()
	layers := map[string]*query.Layer{}
	for name, d := range in.sets {
		layers[name] = query.NewLayer(d)
	}
	o := &oracle{selectIDs: map[string][][]int{}, joinPairs: map[string]map[[2]int]bool{}}
	t := swTester()
	selOpt := query.SelectionOptions{InteriorLevel: -1, NoIntervals: true, NoSignatures: true}
	for _, name := range layerNames {
		ans := make([][]int, len(in.queries))
		for i, q := range in.queries {
			ids, _, err := query.IntersectionSelect(ctx, layers[name], q, t, selOpt)
			if err != nil {
				return nil, fmt.Errorf("oracle select: %w", err)
			}
			ans[i] = ids
		}
		o.selectIDs[name] = ans
	}
	for _, jp := range joinPairs {
		ps, _, err := query.IntersectionJoinOpt(ctx, layers[jp[0]], layers[jp[1]], swTester(),
			query.JoinOptions{NoIntervals: true, NoSignatures: true})
		if err != nil {
			return nil, fmt.Errorf("oracle join: %w", err)
		}
		o.joinPairs[jp[0]+" "+jp[1]] = pairSet(ps)
	}
	ps, _, err := query.WithinDistanceJoin(ctx, layers["water"], layers["prism"], withinD, swTester(),
		query.DistanceFilterOptions{NoSignatures: true})
	if err != nil {
		return nil, fmt.Errorf("oracle within: %w", err)
	}
	o.withinPairs = pairSet(ps)

	if len(in.inserts) > 0 {
		o.insertHitsQuery = make([][]bool, len(in.inserts))
		o.insertPrismPairs = make([]int, len(in.inserts))
		for i, p := range in.inserts {
			row := make([]bool, len(in.queries))
			for j, q := range in.queries {
				row[j] = p.Bounds().Intersects(q.Bounds()) && t.Intersects(p, q)
			}
			o.insertHitsQuery[i] = row
			ids, _, err := query.IntersectionSelect(ctx, layers["prism"], p, t, selOpt)
			if err != nil {
				return nil, fmt.Errorf("oracle insert select: %w", err)
			}
			o.insertPrismPairs[i] = len(ids)
		}
	}
	return o, nil
}
