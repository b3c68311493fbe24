package main

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/coord"
	"repro/internal/geom"
	"repro/internal/partition"
	"repro/internal/server"
	"repro/internal/shellcmd"
)

const (
	fleetTiles      = 4 // a 2x2 grid, one replica per tile
	fleetColdCycles = 9
)

// fleetMix is one cycle of the fleet's closed loop: 3 joins (join on
// both pairs, within) to 8 selects; -1 marks a select slot.
var fleetMix = []int{0, -1, -1, -1, 1, -1, -1, -1, 2, -1, -1}

const fleetSelects = 8 // the -1 slots of fleetMix

type fleetDep struct {
	in     *inputs
	dir    string
	man    *partition.Manifest
	shards []*server.Server
	admin  []*client // one connection per shard, for loads and probes
	co     *coord.Coordinator
	front  *server.Server
	cs     []*client
	joins  []op // join landc lando, join water prism, within water prism
}

func setupFleet(in *inputs, dir string) (deployment, error) {
	sets, err := generate()
	if err != nil {
		return nil, err
	}
	tiles := filepath.Join(dir, "tiles")
	for _, name := range layerNames {
		if _, err := partition.Write(tiles, name, sets[name], partition.Options{Tiles: fleetTiles, Margin: withinD, Tool: "perfbench"}); err != nil {
			return nil, fmt.Errorf("partition %s: %w", name, err)
		}
	}
	d := &fleetDep{in: in, dir: dir}
	if d.man, err = partition.Load(tiles); err != nil {
		return nil, err
	}
	if err := d.boot(tiles); err != nil {
		d.close(newRecorder())
		return nil, err
	}
	o := in.oracle
	d.joins = []op{
		{kind: "join", line: joinLine("join", joinPairs[0]), check: pairCheck("join", o.joinPairs["landc lando"])},
		{kind: "join", line: joinLine("join", joinPairs[1]), check: pairCheck("join", o.joinPairs["water prism"])},
		{kind: "within", line: withinLine(), check: pairCheck("within", o.withinPairs)},
	}
	ops := append([]op(nil), d.joins...)
	for k := 0; k < 16; k++ {
		ops = append(ops, d.selectOp(k))
	}
	if err := warm(d.cs[0], ops); err != nil {
		d.close(newRecorder())
		return nil, err
	}
	return d, nil
}

// boot starts one shard per tile (loading its snapshots over the wire),
// the coordinator, and the front spatiald the clients talk to.
func (d *fleetDep) boot(tiles string) error {
	var addrs []string
	for _, t := range d.man.Tiles {
		srv, err := startServer(serverConfig())
		if err != nil {
			return err
		}
		d.shards = append(d.shards, srv)
		c, err := dial(srv.Addr().String())
		if err != nil {
			return err
		}
		d.admin = append(d.admin, c)
		addrs = append(addrs, srv.Addr().String())
		if err := d.loadTile(c, filepath.Join(tiles, t.Dir)); err != nil {
			return err
		}
	}
	var err error
	if d.co, err = coord.New(coord.Config{Manifest: d.man, Addrs: addrs}); err != nil {
		return err
	}
	cfg := serverConfig()
	cfg.Coordinator = d.co
	if d.front, err = startServer(cfg); err != nil {
		return err
	}
	d.cs, err = dialN(d.front.Addr().String(), clients)
	return err
}

func (d *fleetDep) loadTile(c *client, dir string) error {
	paths := map[string]string{}
	for _, name := range layerNames {
		paths[name] = filepath.Join(dir, partition.SnapshotName(name))
	}
	_, err := loadLayers(c, layerNames, paths)
	return err
}

func (d *fleetDep) selectOp(k int) op {
	layer, q := layerNames[k%len(layerNames)], (k/len(layerNames))%numQueries
	return op{kind: "select", line: selectLine(layer, d.in.queryWKT[q]), check: idCheck(d.in.oracle.selectIDs[layer][q])}
}

// opAt is client ci's k-th operation: fleetMix cycles in seeded order,
// selects numbered uniquely across clients and cycles.
func (d *fleetDep) opAt(ci, k int) op {
	n := len(fleetMix)
	pos := shuffled(d.in.seed, ci, k, n)
	if j := fleetMix[pos]; j >= 0 {
		return d.joins[j]
	}
	sel := 0
	for _, j := range fleetMix[:pos] {
		if j < 0 {
			sel++
		}
	}
	return d.selectOp(((k/n)*clients+ci)*fleetSelects + sel)
}

func (d *fleetDep) cold(until time.Time, rec *recorder, cold *costs) error {
	tiles := filepath.Join(d.dir, "tiles")
	return coldCycles(until, fleetColdCycles, func(int) error {
		for i, t := range d.man.Tiles {
			if err := d.loadTile(d.admin[i], filepath.Join(tiles, t.Dir)); err != nil {
				return err
			}
		}
		s, ok, err := runOnce(d.cs[0], d.joins[0], "cold_join", rec)
		if err != nil {
			return err
		}
		if ok {
			cold.add(s)
		}
		return nil
	})
}

func (d *fleetDep) loop(until time.Time, rec *recorder, tr *tracer) error {
	return closedLoop(d.cs, until, d.opAt, rec, tr)
}

func (d *fleetDep) detail(rec *recorder, out map[string]any) {
	sel := rec.samples("select")
	joins := rec.samples("join")
	within := rec.samples("within")
	ttfr := rec.firsts("join")
	out["select_p50_ms"] = median(sel)
	out["select_p99_ms"] = quantile(sel, 0.99)
	out["select_samples"] = len(sel)
	out["join_p50_ms"] = median(joins)
	out["join_p90_ms"] = quantile(joins, 0.9)
	out["join_samples"] = len(joins)
	out["within_p50_ms"] = median(within)
	out["within_p90_ms"] = quantile(within, 0.9)
	out["within_samples"] = len(within)
	out["ttfr_ms"] = median(ttfr)
	out["ttfr_samples"] = len(ttfr)
}

func (d *fleetDep) probe(tr *tracer, m metrics) error {
	a := acc{}
	eng := &shellcmd.Engine{Store: d.front.Catalog(), Coord: d.co}
	ctx := context.Background()
	for k := 0; k < 16; k++ {
		o := d.selectOp(k)
		layer, q := layerNames[k%len(layerNames)], (k/len(layerNames))%numQueries
		wkt := d.in.queryWKT[q]
		req := reqSeq.Add(1)
		root := tr.begin("request.select", -1, req)
		if _, err := wireAndExec(tr, root, req, d.cs[0], eng, o.line, a); err != nil {
			return err
		}
		var poly *geom.Polygon
		var err error
		tr.timed("geom.wkt_parse", root, req, func() { poly, err = geom.ParsePolygonWKT(wkt) })
		if err != nil {
			return err
		}
		var res coord.Result
		tr.timed("coord.select", root, req, func() { res, err = d.co.Select(ctx, layer, wkt, poly.Bounds()) })
		if err != nil {
			return err
		}
		// Rows before dedup: each overlapping tile's own answer.
		rows := 0
		for _, tile := range d.man.OverlappingTiles(poly.Bounds()) {
			rp, err := d.admin[tile].mustOK("shardselect " + layer + " " + wkt)
			if err != nil {
				return err
			}
			for _, l := range rp.lines {
				if strings.HasPrefix(l, "id ") {
					rows++
				}
			}
		}
		if len(res.IDs) > 0 {
			a.add("coord.dup_frac", float64(rows-len(res.IDs))/float64(len(res.IDs)))
		}
		tr.end(root)
	}
	for rep := 0; rep < 2; rep++ {
		for j, o := range d.joins {
			req := reqSeq.Add(1)
			root := tr.begin("request."+o.kind, -1, req)
			if _, err := wireAndExec(tr, root, req, d.cs[0], eng, o.line, a); err != nil {
				return err
			}
			var res coord.Result
			var err error
			start := time.Now()
			if j < 2 {
				jp := joinPairs[j]
				tr.timed("coord.join", root, req, func() { res, err = d.co.Join(ctx, jp[0], jp[1], "") })
			} else {
				tr.timed("coord.within", root, req, func() { res, err = d.co.Within(ctx, "water", "prism", withinD, "") })
			}
			if err != nil {
				return err
			}
			d.shardTimes(res, time.Since(start), a)
			tr.end(root)
		}
	}
	pdir := filepath.Join(d.dir, "probe-tiles")
	for _, name := range layerNames {
		var err error
		tr.timed("partition.write", -1, reqSeq.Add(1), func() {
			_, err = partition.Write(pdir, name, d.in.sets[name], partition.Options{Tiles: fleetTiles, Margin: withinD, Tool: "perfbench"})
		})
		if err != nil {
			return err
		}
	}
	for _, t := range d.man.Tiles {
		for _, name := range layerNames {
			if _, err := openLayer(tr, -1, reqSeq.Add(1), filepath.Join(d.dir, "tiles", t.Dir, partition.SnapshotName(name))); err != nil {
				return err
			}
		}
	}
	if err := probeStore(tr, d.in, filepath.Join(d.dir, "probe"), a); err != nil {
		return err
	}
	a.into(m)
	spanMedians(tr, m)
	return nil
}

// shardTimes records a fanned-out join's slowest shard and the
// coordinator's time beyond it (dispatch, merge, stream).
func (d *fleetDep) shardTimes(res coord.Result, total time.Duration, a acc) {
	slowest := 0.0
	for _, v := range res.ShardMS {
		slowest = max(slowest, v)
	}
	a.add("coord.slowest_shard_ms", slowest)
	a.add("coord.merge_ms", ms(total)-slowest)
}

func (d *fleetDep) close(*recorder) error {
	closeAll(d.cs)
	var errs []error
	if d.front != nil {
		errs = append(errs, stopServer(d.front))
	}
	if d.co != nil {
		d.co.Close()
	}
	closeAll(d.admin)
	for _, s := range d.shards {
		errs = append(errs, stopServer(s))
	}
	return errors.Join(errs...)
}

// idCheck compares a streamed "id N" answer with the oracle's id set.
func idCheck(want []int) func(reply) string {
	return func(rp reply) string {
		got := map[int]bool{}
		for _, l := range rp.lines {
			if rest, ok := strings.CutPrefix(l, "id "); ok {
				id, err := strconv.Atoi(rest)
				if err != nil || got[id] {
					return "bad or duplicate id row " + l
				}
				got[id] = true
			}
		}
		if len(got) != len(want) {
			return fmt.Sprintf("%d ids, oracle %d", len(got), len(want))
		}
		for _, id := range want {
			if !got[id] {
				return fmt.Sprintf("id %d missing", id)
			}
		}
		return countCheck("select", len(want))(rp)
	}
}

// pairCheck compares a streamed "pair A B" answer with the oracle's
// pair set.
func pairCheck(verb string, want map[[2]int]bool) func(reply) string {
	return func(rp reply) string {
		got := 0
		seen := make(map[[2]int]bool, len(want))
		for _, l := range rp.lines {
			rest, ok := strings.CutPrefix(l, "pair ")
			if !ok {
				continue
			}
			a, b, ok := strings.Cut(rest, " ")
			x, err1 := strconv.Atoi(a)
			y, err2 := strconv.Atoi(b)
			p := [2]int{x, y}
			if !ok || err1 != nil || err2 != nil || seen[p] {
				return "bad or duplicate pair row " + l
			}
			if !want[p] {
				return fmt.Sprintf("pair %d %d not in oracle", x, y)
			}
			seen[p] = true
			got++
		}
		if got != len(want) {
			return fmt.Sprintf("%d pairs, oracle %d", got, len(want))
		}
		return countCheck(verb, len(want))(rp)
	}
}
