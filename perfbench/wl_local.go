package main

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/interval"
	"repro/internal/query"
	"repro/internal/rtree"
	"repro/internal/server"
	"repro/internal/shellcmd"
)

// local is a single spatiald serving the four static layers from their
// snapshots: the select and join workloads.
type local struct {
	in    *inputs
	dir   string
	paths map[string]string
	srv   *server.Server
	cs    []*client
	loads []float64 // wire load latencies of the cold phase (ms)
}

// setupLocal generates and saves the layers, boots the server and loads
// every snapshot over the wire.
func setupLocal(in *inputs, dir string) (*local, error) {
	sets, err := generate()
	if err != nil {
		return nil, err
	}
	paths, err := saveLayers(dir, sets)
	if err != nil {
		return nil, err
	}
	srv, err := startServer(serverConfig())
	if err != nil {
		return nil, err
	}
	l := &local{in: in, dir: dir, paths: paths, srv: srv}
	if l.cs, err = dialN(srv.Addr().String(), clients); err != nil {
		stopServer(srv)
		return nil, err
	}
	if _, err := loadLayers(l.cs[0], layerNames, paths); err != nil {
		l.close(newRecorder())
		return nil, err
	}
	return l, nil
}

func (l *local) close(*recorder) error {
	closeAll(l.cs)
	return stopServer(l.srv)
}

// engine is an in-process engine over the served catalog, configured as
// the server configures its sessions'.
func (l *local) engine() *shellcmd.Engine {
	return &shellcmd.Engine{Store: l.srv.Catalog()}
}

// warm runs ops once, untimed, and fails on any wrong answer.
func warm(c *client, ops []op) error {
	for _, o := range ops {
		rp, err := c.do(o.line)
		if err != nil {
			return err
		}
		if why := verdict(o, rp); why != "" {
			return fmt.Errorf("warm-up: %s", why)
		}
	}
	return nil
}

func (in *inputs) selectOp(layer string, q int) op {
	return op{kind: "select", line: selectLine(layer, in.queryWKT[q]),
		check: countCheck("select", len(in.oracle.selectIDs[layer][q]))}
}

// selectAt is the k-th select of the rotation over layers and queries.
func (in *inputs) selectAt(k int) op {
	return in.selectOp(layerNames[k%len(layerNames)], (k/len(layerNames))%numQueries)
}

// --- select ---------------------------------------------------------

type selectDep struct{ *local }

func setupSelect(in *inputs, dir string) (deployment, error) {
	l, err := setupLocal(in, dir)
	if err != nil {
		return nil, err
	}
	var ops []op
	for k := 0; k < 64; k++ {
		ops = append(ops, in.selectAt(k))
	}
	if err := warm(l.cs[0], ops); err != nil {
		l.close(nil)
		return nil, err
	}
	return selectDep{l}, nil
}

// selectColdCycles re-load every layer this many times and time each
// re-load with the first select on the fresh layer, one fixed cold query
// per cycle.
const selectColdCycles = numColdQueries

// cold times, per layer, bringing it back online: its re-load and the
// first select on it, the time from "load" to a layer's first answer.
func (d selectDep) cold(until time.Time, rec *recorder, cold *costs) error {
	c := d.cs[0]
	return coldCycles(until, selectColdCycles, func(cyc int) error {
		for _, name := range layerNames {
			cpu0 := cpuTime()
			lat, err := loadLayers(c, []string{name}, d.paths)
			if err != nil {
				return err
			}
			d.loads = append(d.loads, lat...)
			s, ok, err := runOnce(c, d.in.selectOp(name, coldQuery+cyc), "cold_select", rec)
			if err != nil {
				return err
			}
			if ok {
				cold.add(cost{wall: lat[0] + s.wall, cpu: ms(cpuTime() - cpu0)})
			}
		}
		return nil
	})
}

func (d selectDep) loop(until time.Time, rec *recorder, tr *tracer) error {
	return closedLoop(d.cs, until, func(ci, k int) op { return d.in.selectAt(k*clients + ci) }, rec, tr)
}

func (d selectDep) detail(rec *recorder, out map[string]any) {
	sel := rec.samples("select")
	out["select_p50_ms"] = median(sel)
	out["select_p99_ms"] = quantile(sel, 0.99)
	out["select_samples"] = len(sel)
	out["load_ms"] = median(d.loads)
}

func (d selectDep) probe(tr *tracer, m metrics) error {
	a, ca := acc{}, &coreAgg{}
	eng := d.engine()
	for k := 0; k < 64; k++ {
		layer, q := layerNames[k%len(layerNames)], (k/len(layerNames))%numQueries
		v, _ := servedView(eng, layer)
		if err := probeSelect(tr, d.cs[0], eng, v, selectLine(layer, d.in.queryWKT[q]), d.in.queryWKT[q], a, ca); err != nil {
			return err
		}
	}
	// Lazy work a select pays on a freshly opened layer, and the
	// first-versus-repeat gap on an unchanged served view (predicted 0:
	// static layers have no delta to rebuild).
	ctx := context.Background()
	q := d.in.queries[0]
	for _, name := range layerNames {
		fresh, err := openLayer(tr, -1, reqSeq.Add(1), d.paths[name])
		if err != nil {
			return err
		}
		a.add("query.lazy_build_ms", lazyBuild(tr, "query.select.fresh", func() {
			selectView(ctx, fresh.View(), q)
		}))
		v, _ := servedView(eng, name)
		a.add("query.delta_rebuild_ms", lazyBuild(tr, "query.select.view", func() {
			selectView(ctx, v, q)
		}))
	}
	if err := probeStore(tr, d.in, filepath.Join(d.dir, "probe"), a); err != nil {
		return err
	}
	a.into(m)
	ca.into(m)
	spanMedians(tr, m)
	return nil
}

// --- join -----------------------------------------------------------

type joinDep struct {
	*local
	mix []op
}

// joinMix is the warm phase's rotation: join and pjoin on both pairs,
// then within.
func (in *inputs) joinMix() []op {
	var mix []op
	for _, jp := range joinPairs {
		want := len(in.oracle.joinPairs[jp[0]+" "+jp[1]])
		for _, verb := range []string{"join", "pjoin"} {
			mix = append(mix, op{kind: verb, line: joinLine(verb, jp), check: countCheck(verb, want)})
		}
	}
	mix = append(mix, op{kind: "within", line: withinLine(), check: countCheck("within", len(in.oracle.withinPairs))})
	return mix
}

func setupJoin(in *inputs, dir string) (deployment, error) {
	l, err := setupLocal(in, dir)
	if err != nil {
		return nil, err
	}
	d := joinDep{local: l, mix: in.joinMix()}
	if err := warm(l.cs[0], d.mix); err != nil {
		l.close(nil)
		return nil, err
	}
	return d, nil
}

// joinColdCycles re-load all layers and run the first joins this many
// times; cold_cpu_ms is the median first LANDC⋈LANDO join.
const joinColdCycles = 4

func (d joinDep) cold(until time.Time, rec *recorder, cold *costs) error {
	c := d.cs[0]
	return coldCycles(until, joinColdCycles, func(int) error {
		lat, err := loadLayers(c, layerNames, d.paths)
		if err != nil {
			return err
		}
		d.local.loads = append(d.local.loads, lat...)
		// mix[0] is join landc lando, mix[2] join water prism, mix[4] within.
		for i, o := range []op{d.mix[0], d.mix[2], d.mix[4]} {
			s, ok, err := runOnce(c, o, "cold_"+o.kind, rec)
			if err != nil {
				return err
			}
			if i == 0 && ok {
				cold.add(s)
			}
		}
		return nil
	})
}

func (d joinDep) loop(until time.Time, rec *recorder, tr *tracer) error {
	return closedLoop(d.cs, until, func(ci, k int) op { return d.mix[shuffled(d.in.seed, ci, k, len(d.mix))] }, rec, tr)
}

func (d joinDep) detail(rec *recorder, out map[string]any) {
	joins := rec.samples("join", "pjoin")
	within := rec.samples("within")
	out["join_p50_ms"] = median(joins)
	out["join_p90_ms"] = quantile(joins, 0.9)
	out["join_samples"] = len(joins)
	out["within_p50_ms"] = median(within)
	out["within_p90_ms"] = quantile(within, 0.9)
	out["within_samples"] = len(within)
	out["load_ms"] = median(d.loads)
}

func (d joinDep) probe(tr *tracer, m metrics) error {
	a, ca := acc{}, &coreAgg{}
	eng := d.engine()
	ctx := context.Background()
	for rep := 0; rep < 2; rep++ {
		for _, o := range d.mix {
			if err := d.probeJoin(tr, eng, o, a, ca); err != nil {
				return err
			}
		}
	}
	// Cold work: the interval column build per layer, the edge-index
	// hydration of a fresh layer, and the first join on fresh layers.
	for _, name := range layerNames {
		objs := d.in.sets[name].Objects
		g, ok := interval.GridFor(objs, 0)
		if !ok {
			return fmt.Errorf("no interval grid for %s", name)
		}
		dur := tr.timed("interval.build", -1, reqSeq.Add(1), func() { interval.Build(objs, g) })
		a.add("interval.build_us_per_object", float64(dur.Microseconds())/float64(len(objs)))
		fresh, err := openLayer(tr, -1, reqSeq.Add(1), d.paths[name])
		if err != nil {
			return err
		}
		tr.timed("edgeindex.build", -1, reqSeq.Add(1), func() {
			for id := range fresh.Data.Objects {
				fresh.EdgeIndex(id)
			}
		})
	}
	for _, jp := range joinPairs {
		req := reqSeq.Add(1)
		la, err := openLayer(tr, -1, req, d.paths[jp[0]])
		if err != nil {
			return err
		}
		lb, err := openLayer(tr, -1, req, d.paths[jp[1]])
		if err != nil {
			return err
		}
		a.add("query.lazy_build_ms", lazyBuild(tr, "query.join.fresh", func() {
			query.IntersectionJoinView(ctx, la.View(), lb.View(), hwTester(), query.JoinOptions{})
		}))
	}
	if err := probeStore(tr, d.in, filepath.Join(d.dir, "probe"), a); err != nil {
		return err
	}
	a.into(m)
	ca.into(m)
	spanMedians(tr, m)
	return nil
}

// probeJoin times one join-family command through the wire, the engine,
// the R-tree join and the query driver the engine calls for it.
func (d joinDep) probeJoin(tr *tracer, eng *shellcmd.Engine, o op, a acc, ca *coreAgg) error {
	req := reqSeq.Add(1)
	root := tr.begin("request."+o.kind, -1, req)
	defer tr.end(root)
	if _, err := wireAndExec(tr, root, req, d.cs[0], eng, o.line, a); err != nil {
		return err
	}
	// Every join-family line reads "<verb> <a> <b> ...".
	f := strings.Fields(o.line)
	va, _ := servedView(eng, f[1])
	vb, _ := servedView(eng, f[2])
	ctx := context.Background()
	var err error
	switch o.kind {
	case "join", "pjoin":
		n := 0
		tr.timed("rtree.join", root, req, func() {
			rtree.Join(va.Base().Index, vb.Base().Index, func(rtree.Entry, rtree.Entry) bool { n++; return true })
		})
		a.add("rtree.join_candidates", float64(n))
	}
	switch o.kind {
	case "join":
		t := hwTester()
		var ps []query.Pair
		var cost query.Cost
		tr.timed("query.join", root, req, func() {
			ps, cost, err = query.IntersectionJoinView(ctx, va, vb, t, query.JoinOptions{})
		})
		a.addCost(cost, len(ps))
		ca.add(t.Stats)
	case "pjoin":
		var st core.Stats
		tr.timed("query.pjoin", root, req, func() {
			_, st, err = query.PipelineIntersectionJoinView(ctx, va, vb, query.PipelineOptions{})
		})
		a.add("query.pipeline_filter_ms", float64(st.PipelineFilterNS)/1e6)
		a.add("query.pipeline_refine_ms", float64(st.PipelineRefineNS)/1e6)
		a.add("query.pipeline_queue_depth", float64(st.PipelineQueueDepth))
		ca.add(st)
	case "within":
		t := hwTester()
		var ps []query.Pair
		var cost query.Cost
		tr.timed("query.within", root, req, func() {
			ps, cost, err = query.WithinDistanceJoinView(ctx, va, vb, withinD, t,
				query.DistanceFilterOptions{Use0Object: true, Use1Object: true})
		})
		a.addCost(cost, len(ps))
		ca.add(t.Stats)
	}
	return err
}
