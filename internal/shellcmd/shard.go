package shellcmd

// Shard-side verbs for the multi-node deployment. A shard is a vanilla
// spatiald process serving the per-tile snapshots written by the
// partition verb; what makes it a shard is only which commands the
// coordinator sends it. The shard verbs differ from their single-node
// counterparts in two ways:
//
//   - They emit machine-readable data lines — "id <N>" for selections,
//     "pair <A> <B>" for joins, and one trailing "stats <json>" record —
//     instead of a human summary, so the coordinator can merge streams
//     without scraping prose. None of these prefixes collides with the
//     wire status words (ok / partial: / error:).
//
//   - The join verbs take the shard's ownership region on the wire and
//     apply the reference-point rule locally: a pair is emitted only if
//     this shard owns the reference point of its MBR intersection, so
//     the coordinator can concatenate shard outputs without
//     deduplication. Ids are the stable global ids persisted in the tile
//     snapshots (SaveOptions.IDs), so merged results are directly
//     comparable with a single-node run.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/geom"
	"repro/internal/partition"
	"repro/internal/query"
)

// globalIDs returns the layer's stable-id column when it was loaded from
// a snapshot that persisted one; nil means identity (local index == id).
func globalIDs(v *query.View) []uint64 {
	if l, ok := v.Single(); ok {
		if s, ok := l.Snapshot(); ok {
			return s.IDs()
		}
	}
	return nil
}

func gid(ids []uint64, i int) uint64 {
	if ids == nil {
		return uint64(i)
	}
	return ids[i]
}

// parseRect reads an ownership region from four wire fields. Border
// tiles carry ±Inf edges; strconv round-trips them ("+Inf"/"-Inf").
func parseRect(args []string) (geom.Rect, error) {
	var v [4]float64
	for i, a := range args {
		f, err := strconv.ParseFloat(a, 64)
		if err != nil {
			return geom.Rect{}, fmt.Errorf("bad region coordinate %q: %w", a, err)
		}
		v[i] = f
	}
	return geom.Rect{MinX: v[0], MinY: v[1], MaxX: v[2], MaxY: v[3]}, nil
}

// FormatRect renders a region for the wire in the form parseRect reads.
func FormatRect(r geom.Rect) string {
	f := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	return f(r.MinX) + " " + f(r.MinY) + " " + f(r.MaxX) + " " + f(r.MaxY)
}

// writeStats terminates a shard response's data section with the uniform
// stats record on one line.
func writeStats(out io.Writer, st query.Stats) {
	b, err := json.Marshal(st)
	if err != nil {
		return // stats are advisory; never poison the data stream
	}
	fmt.Fprintf(out, "stats %s\n", b)
}

// partitionCmd splits a layer into a tile grid on disk:
// partition <layer> <tiles> <dir> [margin [replicas]]
func (e *Engine) partitionCmd(store Store, args []string, out io.Writer) (Result, error) {
	if len(args) < 3 || len(args) > 5 {
		return Result{}, fmt.Errorf("usage: partition <layer> <tiles> <dir> [margin [replicas]]")
	}
	v, err := viewOf(store, args[0])
	if err != nil {
		return Result{}, err
	}
	n, err := strconv.Atoi(args[1])
	if err != nil || n < 1 {
		return Result{}, fmt.Errorf("bad tile count %q", args[1])
	}
	margin := 0.0
	if len(args) >= 4 {
		if margin, err = strconv.ParseFloat(args[3], 64); err != nil || margin < 0 {
			return Result{}, fmt.Errorf("bad margin %q", args[3])
		}
	}
	replicas := 0
	if len(args) == 5 {
		if replicas, err = strconv.Atoi(args[4]); err != nil || replicas < 1 {
			return Result{}, fmt.Errorf("bad replica count %q", args[4])
		}
	}
	res, err := partition.Write(args[2], args[0], v.Dataset(),
		partition.Options{Tiles: n, Replicas: replicas, Margin: margin, Tool: "spatialdb"})
	if err != nil {
		return Result{}, err
	}
	m := res.Manifest
	fmt.Fprintf(out, "partitioned %q into %d tiles x %d replicas (%dx%d grid, margin %g) under %s: %d objects, %d replicas (%.2fx), %d bytes in %.1fms (generation %d)\n",
		args[0], m.NumTiles(), m.Replicas(), m.GX, m.GY, m.Margin, args[2],
		res.Objects, res.Replicas, float64(res.Replicas)/float64(max(res.Objects, 1)),
		res.Bytes, res.WallMS, m.Generation)
	return Result{Stats: query.Stats{Op: "partition", Results: res.Objects}, Mutation: true}, nil
}

// shardSelect runs a selection and emits stable ids:
// shardselect <layer> <WKT POLYGON>
func (e *Engine) shardSelect(ctx context.Context, store Store, line string, out io.Writer) (Result, error) {
	rest := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(line), "shardselect"))
	name, wkt, ok := strings.Cut(rest, " ")
	if !ok {
		return Result{}, fmt.Errorf("usage: shardselect <layer> <WKT POLYGON>")
	}
	v, err := viewOf(store, name)
	if err != nil {
		return Result{}, err
	}
	q, err := geom.ParsePolygonWKT(wkt)
	if err != nil {
		return Result{}, err
	}
	tester, err := e.tester("hw")
	if err != nil {
		return Result{}, err
	}
	qctx, cancel := e.qctx(ctx)
	defer cancel()
	// Streaming delivery: result ids flush to the client in batches as
	// refinement proceeds instead of buffering the whole selection. Rows
	// returned by the view were already streamed, so nothing is re-printed
	// below — on a partial, the rows out are exactly the rows found.
	stable := globalIDs(v)
	var buf bytes.Buffer
	sink := func(batch []int) error {
		buf.Reset()
		for _, i := range batch {
			fmt.Fprintf(&buf, "id %d\n", gid(stable, i))
		}
		_, werr := out.Write(buf.Bytes())
		return werr
	}
	ids, cost, qerr := query.IntersectionSelectView(qctx, v, q, tester, e.selectOpts(sink))
	var be *query.BudgetError
	if errors.As(qerr, &be) {
		return Result{}, qerr
	}
	st := query.NewStats("shardselect", len(ids), cost, tester.Stats)
	liveStats(&st, v)
	writeStats(out, st)
	return Result{Stats: st, Partial: note(out, qerr)}, nil
}

// shardJoin runs an intersection join and emits only the pairs whose
// reference point this shard owns:
// shardjoin <a> <b> <minx> <miny> <maxx> <maxy> [sw|hw]
func (e *Engine) shardJoin(ctx context.Context, store Store, args []string, out io.Writer) (Result, error) {
	if len(args) < 6 || len(args) > 7 {
		return Result{}, fmt.Errorf("usage: shardjoin <a> <b> <minx> <miny> <maxx> <maxy> [sw|hw]")
	}
	a, err := viewOf(store, args[0])
	if err != nil {
		return Result{}, err
	}
	b, err := viewOf(store, args[1])
	if err != nil {
		return Result{}, err
	}
	region, err := parseRect(args[2:6])
	if err != nil {
		return Result{}, err
	}
	mode := ""
	if len(args) == 7 {
		mode = args[6]
	}
	opt, err := e.pipelineOpts(mode, 0)
	if err != nil {
		return Result{}, err
	}
	qctx, cancel := e.qctx(ctx)
	defer cancel()
	// The join runs through the staged batch pipeline; each refined batch
	// streams its owned pairs to the client immediately (the emit stage),
	// so the coordinator and wire clients see first rows while refinement
	// is still running. The reference-point ownership filter runs inside
	// the sink.
	da, db := a.Dataset(), b.Dataset()
	idsA, idsB := globalIDs(a), globalIDs(b)
	owned := 0
	var buf bytes.Buffer
	opt.Sink = func(pairs []query.Pair) error {
		buf.Reset()
		for _, p := range pairs {
			ref := partition.RefPoint(da.Objects[p.A].Bounds(), db.Objects[p.B].Bounds())
			if !partition.OwnsRect(region, ref) {
				continue
			}
			owned++
			fmt.Fprintf(&buf, "pair %d %d\n", gid(idsA, p.A), gid(idsB, p.B))
		}
		if buf.Len() == 0 {
			return nil
		}
		_, werr := out.Write(buf.Bytes())
		return werr
	}
	_, stats, qerr := query.PipelineIntersectionJoinView(qctx, a, b, opt)
	var be *query.BudgetError
	if errors.As(qerr, &be) {
		return Result{}, qerr
	}
	st := query.NewStats("shardjoin", owned, query.Cost{}, stats)
	liveStats(&st, a, b)
	writeStats(out, st)
	return Result{Stats: st, Partial: note(out, qerr)}, nil
}

// shardWithin is the within-distance counterpart of shardJoin; the
// reference point is taken over the d-expanded MBR intersection, which
// is only guaranteed to fall in the owning tile's replicas when the
// partitioning margin is ≥ d (the coordinator enforces that).
// shardwithin <a> <b> <D> <minx> <miny> <maxx> <maxy> [sw|hw]
func (e *Engine) shardWithin(ctx context.Context, store Store, args []string, out io.Writer) (Result, error) {
	if len(args) < 7 || len(args) > 8 {
		return Result{}, fmt.Errorf("usage: shardwithin <a> <b> <D> <minx> <miny> <maxx> <maxy> [sw|hw]")
	}
	a, err := viewOf(store, args[0])
	if err != nil {
		return Result{}, err
	}
	b, err := viewOf(store, args[1])
	if err != nil {
		return Result{}, err
	}
	d, err := strconv.ParseFloat(args[2], 64)
	if err != nil {
		return Result{}, fmt.Errorf("bad distance: %w", err)
	}
	region, err := parseRect(args[3:7])
	if err != nil {
		return Result{}, err
	}
	mode := ""
	if len(args) == 8 {
		mode = args[7]
	}
	opt, err := e.pipelineOpts(mode, 0)
	if err != nil {
		return Result{}, err
	}
	qctx, cancel := e.qctx(ctx)
	defer cancel()
	// Same staged pipeline + streaming emit as shardJoin; the d-expanded
	// reference-point ownership filter runs inside the sink.
	da, db := a.Dataset(), b.Dataset()
	idsA, idsB := globalIDs(a), globalIDs(b)
	owned := 0
	var buf bytes.Buffer
	opt.Sink = func(pairs []query.Pair) error {
		buf.Reset()
		for _, p := range pairs {
			ref := partition.RefPointWithin(da.Objects[p.A].Bounds(), db.Objects[p.B].Bounds(), d)
			if !partition.OwnsRect(region, ref) {
				continue
			}
			owned++
			fmt.Fprintf(&buf, "pair %d %d\n", gid(idsA, p.A), gid(idsB, p.B))
		}
		if buf.Len() == 0 {
			return nil
		}
		_, werr := out.Write(buf.Bytes())
		return werr
	}
	_, stats, qerr := query.PipelineWithinDistanceJoinView(qctx, a, b, d, opt)
	var be *query.BudgetError
	if errors.As(qerr, &be) {
		return Result{}, qerr
	}
	st := query.NewStats("shardwithin", owned, query.Cost{}, stats)
	liveStats(&st, a, b)
	writeStats(out, st)
	return Result{Stats: st, Partial: note(out, qerr)}, nil
}
