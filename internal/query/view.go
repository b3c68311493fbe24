package query

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/geom"
)

// Source is anything the serving layers can query: a plain immutable
// Layer or a live table absorbing mutations. View returns a point-in-time
// read view; for a Layer it is the layer itself as a single component,
// for a live table it composes snapshot ∪ delta − tombstones. Views are
// immutable — a mutation produces a fresh one — so a query holds a
// consistent world for its whole run.
type Source interface {
	View() *View
}

// View is an immutable point-in-time read view over one or two layer
// components: a base layer (usually mmap-snapshot-backed) and an optional
// in-memory delta of live inserts, minus tombstones. Object positions are
// canonical: base survivors in base order, then alive delta objects in
// insertion order — the same order a from-scratch build of the current
// state would use, which is what makes recovery differential-testable.
type View struct {
	base  *Layer
	delta *Layer // nil when no live inserts are visible

	// baseCanon maps base object index → canonical position, -1 for
	// tombstoned objects. Nil means identity (no tombstones).
	baseCanon []int32
	// deltaCanon maps delta-layer object index → canonical position.
	deltaCanon []int32

	numObjects int
	origin     string
}

// viewComponent is one queryable layer of a view plus its canonical
// position mapping (-1 = hidden by a tombstone).
type viewComponent struct {
	layer *Layer
	canon func(int) int32
}

// View returns the layer itself as a single-component view (Source).
func (l *Layer) View() *View {
	l.viewOnce.Do(func() {
		l.selfView = &View{base: l, numObjects: len(l.Data.Objects), origin: l.Origin}
	})
	return l.selfView
}

// NumObjects returns the canonical object count (survivors plus live
// inserts).
func (v *View) NumObjects() int { return v.numObjects }

// Origin describes where the view's data came from, for provenance
// surfaces (layer listings, access logs).
func (v *View) Origin() string { return v.origin }

// Single returns the view's only layer when it is an undecorated single
// component (no delta, no tombstones) — the fast path every pre-ingestion
// query takes, and the required shape for kNN and overlay joins.
func (v *View) Single() (*Layer, bool) {
	if v.delta == nil && v.baseCanon == nil {
		return v.base, true
	}
	return nil, false
}

// Base returns the view's base layer (always non-nil).
func (v *View) Base() *Layer { return v.base }

// Counts breaks the view down: base objects (before tombstones), alive
// delta objects, and tombstoned base objects.
func (v *View) Counts() (base, delta, tombs int) {
	base = len(v.base.Data.Objects)
	if v.delta != nil {
		delta = len(v.delta.Data.Objects)
	}
	tombs = base + delta - v.numObjects
	return base, delta, tombs
}

// Dataset materializes the view's objects in canonical order. Single
// views return their layer's dataset as-is (zero-copy); composed views
// allocate the object slice (the polygons themselves are shared).
func (v *View) Dataset() *data.Dataset {
	if l, ok := v.Single(); ok {
		return l.Data
	}
	objs := make([]*geom.Polygon, 0, v.numObjects)
	for _, p := range v.base.Data.Objects {
		objs = append(objs, p)
	}
	if v.baseCanon != nil {
		objs = objs[:0]
		for i, p := range v.base.Data.Objects {
			if v.baseCanon[i] >= 0 {
				objs = append(objs, p)
			}
		}
	}
	if v.delta != nil {
		objs = append(objs, v.delta.Data.Objects...)
	}
	return &data.Dataset{Name: v.base.Data.Name, Objects: objs}
}

// components lists the view's queryable layers with their canonical
// mappings.
func (v *View) components() []viewComponent {
	canonBase := func(i int) int32 { return int32(i) }
	if v.baseCanon != nil {
		canonBase = func(i int) int32 { return v.baseCanon[i] }
	}
	comps := []viewComponent{{layer: v.base, canon: canonBase}}
	if v.delta != nil {
		comps = append(comps, viewComponent{layer: v.delta, canon: func(i int) int32 { return v.deltaCanon[i] }})
	}
	return comps
}

// LiveUnsupportedError reports a query that requires a single-component
// view (kNN's ordered index walk, the overlay join's accumulation
// protocol) being aimed at a view with live mutations. Compact the table
// to fold the delta down, then retry.
type LiveUnsupportedError struct {
	Op string
}

func (e *LiveUnsupportedError) Error() string {
	return fmt.Sprintf("query: %s does not support a live delta view; compact the layer first", e.Op)
}

// querySide is the A side of a selection run as a join: a bare
// single-component view whose one object (position 0) is the query
// polygon. Its component carries no layer, because selection plans never
// read the A side; it exists so that joinViews composes a selection over
// a live view exactly as it composes a join.
var querySide = &View{numObjects: 1}

// IntersectionSelectView is IntersectionSelect over a view: the query
// polygon is joined against the view through joinViews, so a composed
// view's results land on canonical positions, tombstoned objects drop out,
// the union comes back sorted ascending and Sink rows are remapped per
// component. A single-component view keeps IntersectionSelect's order. A
// *PartialError carries the merged results so far; a *BudgetError (per
// component) aborts with no results, as on a plain layer.
func IntersectionSelectView(ctx context.Context, v *View, query *geom.Polygon, tester *core.Tester, opt SelectionOptions) ([]int, Cost, error) {
	po := PipelineOptions{Workers: 1, NoLocalityOrder: true, MaxCandidates: opt.MaxCandidates}
	if opt.Sink != nil {
		var ids []int
		po.Sink = func(pairs []Pair) error {
			ids = appendIDs(ids[:0], pairs)
			return opt.Sink(ids)
		}
	}
	pairs, cost, stats, err := joinViews(querySide, v, po, func(_, l *Layer, o PipelineOptions) ([]Pair, Cost, core.Stats, error) {
		return runJoin(ctx, selectPlan(l, query, opt), o, tester)
	})
	// The executor counts streamed rows in its own Stats; a selection
	// reports them on the caller's tester with the pair tests.
	tester.Stats.StreamRowsEmitted += stats.StreamRowsEmitted
	return appendIDs(nil, pairs), cost, err
}

// appendIDs appends the selected object of each selection pair {0, id}.
func appendIDs(ids []int, pairs []Pair) []int {
	for _, pr := range pairs {
		ids = append(ids, pr.B)
	}
	return ids
}

// IntersectionJoinView is IntersectionJoinOpt over views; see joinViews
// for how composed views merge. Every component join runs on the
// caller's tester.
func IntersectionJoinView(ctx context.Context, a, b *View, tester *core.Tester, opt JoinOptions) ([]Pair, Cost, error) {
	pairs, cost, _, err := joinViews(a, b, opt.pipeline(), func(x, y *Layer, o PipelineOptions) ([]Pair, Cost, core.Stats, error) {
		return runJoin(ctx, intersectsPlan(x, y, "join", opt.UseHullFilter, o), o, tester)
	})
	return pairs, cost, err
}

// WithinDistanceJoinView is IntersectionJoinView for the buffer query.
func WithinDistanceJoinView(ctx context.Context, a, b *View, d float64, tester *core.Tester, opt DistanceFilterOptions) ([]Pair, Cost, error) {
	pairs, cost, _, err := joinViews(a, b, opt.pipeline(), func(x, y *Layer, o PipelineOptions) ([]Pair, Cost, core.Stats, error) {
		return runJoin(ctx, withinPlan(x, y, d, "within-join", opt.Use0Object, opt.Use1Object, o), o, tester)
	})
	return pairs, cost, err
}

// joinViews is the one composer for joins and selections (see
// querySide). Single×single views run join
// directly, byte for byte. Composed views run it across every component
// combination (up to base×base, base×delta, delta×base, delta×delta),
// streaming each component's batches through a canonical-remapping sink
// so rows still arrive incrementally, drop tombstoned participants, and
// return the union sorted by (A, B). Tombstoned objects still pass
// through the component joins (they live in the base layer's R-tree), so
// the summed Cost and Stats include their filtering work, which is the
// honest price of querying an uncompacted view. A *BudgetError aborts
// with no results.
func joinViews(a, b *View, opt PipelineOptions, join func(x, y *Layer, o PipelineOptions) ([]Pair, Cost, core.Stats, error)) ([]Pair, Cost, core.Stats, error) {
	la, aok := a.Single()
	lb, bok := b.Single()
	if aok && bok {
		return join(la, lb, opt)
	}
	var out []Pair
	var cost Cost
	var stats core.Stats
	for _, ca := range a.components() {
		for _, cb := range b.components() {
			o := opt
			if opt.Sink != nil {
				canonA, canonB := ca.canon, cb.canon
				var remapped []Pair
				o.Sink = func(pairs []Pair) error {
					remapped = remapped[:0]
					for _, pr := range pairs {
						pa, pb := canonA(pr.A), canonB(pr.B)
						if pa >= 0 && pb >= 0 {
							remapped = append(remapped, Pair{int(pa), int(pb)})
						}
					}
					if len(remapped) == 0 {
						return nil
					}
					return opt.Sink(remapped)
				}
			}
			pairs, c, st, err := join(ca.layer, cb.layer, o)
			cost.Add(c)
			stats.Add(st)
			for _, pr := range pairs {
				pa, pb := ca.canon(pr.A), cb.canon(pr.B)
				if pa >= 0 && pb >= 0 {
					out = append(out, Pair{int(pa), int(pb)})
				}
			}
			if err != nil {
				if _, ok := err.(*BudgetError); ok {
					return nil, cost, stats, err
				}
				sortPairsByOuter(out)
				cost.Results = len(out)
				return out, cost, stats, err
			}
		}
	}
	sortPairsByOuter(out)
	cost.Results = len(out)
	return out, cost, stats, nil
}
