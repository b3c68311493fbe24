package main

import (
	"context"
	"io"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/interval"
	"repro/internal/query"
	"repro/internal/rtree"
	"repro/internal/shellcmd"
	"repro/internal/store"
)

// The traced run's layer probes: each calls one layer's public function
// from here, inside a span, with the inputs the workload sends.

// spanMetric maps a probe span name to the per-layer metric that reports
// the median of its durations.
var spanMetric = map[string]string{
	"shellcmd.exec":      "shellcmd.exec_ms",
	"geom.wkt_parse":     "geom.wkt_parse_ms",
	"rtree.search":       "rtree.search_ms",
	"rtree.join":         "rtree.join_ms",
	"query.select":       "query.select_ms",
	"query.join":         "query.join_ms",
	"query.pjoin":        "query.pjoin_ms",
	"query.within":       "query.within_ms",
	"interval.build":     "interval.build_ms",
	"interval.rasterize": "interval.rasterize_ms",
	"edgeindex.build":    "edgeindex.build_ms",
	"store.open":         "store.open_ms",
	"store.save":         "store.save_ms",
	"ingest.view":        "ingest.view_ms",
	"coord.join":         "coord.join_ms",
	"coord.select":       "coord.select_ms",
	"partition.write":    "partition.write_ms",
}

// spanMedians fills the span-timed metrics from the tracer.
func spanMedians(tr *tracer, m metrics) {
	for name, ds := range tr.durations() {
		if metric, ok := spanMetric[name]; ok {
			m[metric] = median(ds)
		}
	}
}

// acc collects per-probe samples; into stores each metric's median.
type acc map[string][]float64

func (a acc) add(name string, v float64) { a[name] = append(a[name], v) }

func (a acc) into(m metrics) {
	for name, xs := range a {
		m[name] = median(xs)
	}
}

// coreAgg sums the refinement statistics the probed queries return.
type coreAgg struct {
	s core.Stats
	n int
}

func (c *coreAgg) add(s core.Stats) { c.s.Add(s); c.n++ }

func (c *coreAgg) into(m metrics) {
	if c.n == 0 {
		return
	}
	s, n := c.s, float64(c.n)
	tests := float64(max(s.Tests, 1))
	frac := func(x int64) float64 { return float64(x) / tests }
	m["core.tests"] = float64(s.Tests) / n
	m["core.mbr_reject_frac"] = frac(s.MBRRejects)
	m["core.interval_true_hit_frac"] = frac(s.IntervalTrueHits)
	m["core.interval_reject_frac"] = frac(s.IntervalRejects)
	m["core.pip_hit_frac"] = frac(s.PIPHits)
	m["core.sig_reject_frac"] = frac(s.SigRejects)
	m["core.hw_reject_frac"] = frac(s.HWRejects)
	m["core.exact_frac"] = frac(s.SWDirect + s.HWPassed + s.HWFallbacks + s.BreakerOpenSkips)
	m["core.hw_ms"] = ms(s.HWTime) / n
	m["core.sw_ms"] = ms(s.SWTime) / n
	m["core.collect_ms"] = ms(s.CollectTime) / n
	m["core.sentinel_checks"] = float64(s.SentinelChecks) / n
	if s.EdgeIndexHits > 0 {
		m["edgeindex.skipped_per_hit"] = float64(s.EdgeIndexSkippedEdges) / float64(s.EdgeIndexHits)
	}
}

// addCost records a query's returned per-stage Cost.
func (a acc) addCost(c query.Cost, results int) {
	a.add("query.mbr_ms", ms(c.MBRFilter))
	a.add("query.interior_ms", ms(c.IntermediateFilter))
	a.add("query.geometry_ms", ms(c.GeometryComparison))
	if c.Candidates > 0 {
		a.add("query.result_frac", float64(results)/float64(c.Candidates))
	}
}

// hwTester is the tester the serving engine builds for "hw" (default)
// commands.
func hwTester() *core.Tester {
	return core.NewTester(core.Config{SWThreshold: core.DefaultSWThreshold})
}

// wireAndExec sends line over the wire, then runs the same line through
// an in-process shellcmd.Engine over the same catalog; the difference is
// the serving layer's overhead (read, admission, per-line flush).
func wireAndExec(tr *tracer, root int, req int64, c *client, eng *shellcmd.Engine, line string, a acc) (reply, error) {
	var rp reply
	var err error
	rt := tr.timed("server.roundtrip", root, req, func() { rp, err = c.do(line) })
	if err != nil {
		return rp, err
	}
	var xerr error
	ex := tr.timed("shellcmd.exec", root, req, func() {
		_, xerr = eng.Exec(context.Background(), line, io.Discard)
	})
	a.add("server.overhead_ms", ms(rt-ex))
	return rp, xerr
}

// probeSelect times one select through every layer it crosses.
func probeSelect(tr *tracer, c *client, eng *shellcmd.Engine, v *query.View, line, wkt string, a acc, ca *coreAgg) error {
	req := reqSeq.Add(1)
	root := tr.begin("request.select", -1, req)
	defer tr.end(root)
	if _, err := wireAndExec(tr, root, req, c, eng, line, a); err != nil {
		return err
	}
	var q *geom.Polygon
	var err error
	tr.timed("geom.wkt_parse", root, req, func() { q, err = geom.ParsePolygonWKT(wkt) })
	if err != nil {
		return err
	}
	base := v.Base()
	n := 0
	tr.timed("rtree.search", root, req, func() {
		base.Index.Search(q.Bounds(), func(rtree.Entry) bool { n++; return true })
	})
	a.add("rtree.candidates", float64(n))
	if s, ok := base.Snapshot(); ok && s.HasIntervals() {
		g := s.Intervals().Grid
		tr.timed("interval.rasterize", root, req, func() { interval.Rasterize(q, g) })
	}
	t := hwTester()
	var ids []int
	var cost query.Cost
	tr.timed("query.select", root, req, func() {
		ids, cost, err = query.IntersectionSelectView(context.Background(), v, q, t, query.SelectionOptions{InteriorLevel: 4})
	})
	if err != nil {
		return err
	}
	a.addCost(cost, len(ids))
	ca.add(t.Stats)
	return nil
}

// probeStore times store.Save and store.Open + NewLayerFromSnapshot of
// each layer into dir, and the snapshot bytes per vertex.
func probeStore(tr *tracer, in *inputs, dir string, a acc) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var bytes, verts int
	for _, name := range layerNames {
		req := reqSeq.Add(1)
		p := filepath.Join(dir, name+".snap")
		var bs store.BuildStats
		var err error
		tr.timed("store.save", -1, req, func() { bs, err = store.Save(p, in.sets[name], store.SaveOptions{Tool: "perfbench"}) })
		if err != nil {
			return err
		}
		bytes += int(bs.Bytes)
		verts += bs.TotalVerts
		if _, err := openLayer(tr, -1, req, p); err != nil {
			return err
		}
	}
	a.add("store.bytes_per_vertex", float64(bytes)/float64(verts))
	return nil
}

// openLayer opens a snapshot into a fresh query layer inside a
// store.open span.
func openLayer(tr *tracer, parent int, req int64, path string) (*query.Layer, error) {
	var l *query.Layer
	var err error
	tr.timed("store.open", parent, req, func() {
		var s *store.Snapshot
		if s, err = store.Open(path, store.OpenOptions{}); err != nil {
			return
		}
		if l, err = query.NewLayerFromSnapshot(s); err != nil {
			s.Close()
		}
	})
	return l, err
}

// lazyBuild is the first call of f on fresh state minus the median of
// three repeats: the one-time work (interval columns, edge indexes,
// delta rebuilds) the first call paid.
func lazyBuild(tr *tracer, name string, f func()) float64 {
	req := reqSeq.Add(1)
	root := tr.begin(name, -1, req)
	defer tr.end(root)
	first := tr.timed(name+".first", root, req, f)
	var warm []float64
	for i := 0; i < 3; i++ {
		warm = append(warm, ms(tr.timed(name+".repeat", root, req, f)))
	}
	return ms(first) - median(warm)
}

// servedView returns the view a served name currently resolves to.
func servedView(eng *shellcmd.Engine, name string) (*query.View, bool) {
	s, ok := eng.Store.Get(name)
	if !ok {
		return nil, false
	}
	return s.View(), true
}

// selectView runs a select the way the engine's select verb does.
func selectView(ctx context.Context, v *query.View, q *geom.Polygon) ([]int, query.Cost, error) {
	return query.IntersectionSelectView(ctx, v, q, hwTester(), query.SelectionOptions{InteriorLevel: 4})
}
