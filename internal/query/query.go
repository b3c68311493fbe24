// Package query implements the paper's three-stage query processing
// pipeline (Figure 8): MBR filtering over an R-tree, intermediate
// filtering (the interior filter for selections, the 0-Object and
// 1-Object filters for within-distance joins), and geometry comparison
// with either the software tests or the hardware-assisted tests from
// internal/core. Each stage's wall-clock cost and candidate counts are
// recorded, which is what the evaluation figures plot.
//
// # Failure semantics
//
// Every query takes a context.Context and honors cancellation and
// deadlines at chunk granularity (cancelStride refinement units between
// checks): an interrupted query returns the results computed so far plus
// a *PartialError that unwraps to the context's error, and leaks no
// goroutines. Queries with a candidate budget fail fast with a
// *BudgetError before any refinement work when MBR filtering overflows
// the budget. Every filter-and-refine query additionally isolates
// panicking refinement tests: a pair whose test panics is retried once on
// the exact software path and, failing that, quarantined (counted in
// core.Stats, excluded from the result set) — one poisoned geometry pair
// can no longer take down a selection or a join. Every filter-and-refine
// query runs through one executor (pipeline.go). See DESIGN.md §7 and §14.
package query

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/edgeindex"
	"repro/internal/filter"
	"repro/internal/geom"
	"repro/internal/interval"
	"repro/internal/raster"
	"repro/internal/rtree"
	"repro/internal/store"
)

// Layer is a dataset with its R-tree index, the unit that queries operate
// on. Build layers once and reuse them across queries.
type Layer struct {
	Data  *data.Dataset
	Index *rtree.Tree

	// Origin records where the layer came from: "memory" for built
	// layers, the snapshot path (or "snapshot") for loaded ones. Serving
	// catalogs surface it as provenance.
	Origin string

	hullOnce sync.Once
	hulls    *filter.HullSet

	// edgeIdx caches each object's immutable edge index, built lazily on
	// first use and shared read-only by every worker (see EdgeIndex).
	edgeIdx []atomic.Pointer[edgeindex.Index]

	// snap, for snapshot-backed layers, retains the open snapshot: its
	// persisted edge boxes seed EdgeIndex and its mapping must outlive
	// every polygon view the layer hands out.
	snap *store.Snapshot

	// sigs holds the per-object persisted raster signatures of a
	// snapshot-backed layer (nil otherwise); see Signature.
	sigs   []raster.Signature
	sigRes int

	// breakers holds this layer's per-mate hardware-filter circuit
	// breakers (see Breaker). The map is touched once per query to fetch
	// the shared *core.Breaker; all per-pair traffic then goes through the
	// breaker's own atomics.
	breakerMu sync.Mutex
	breakers  map[*Layer]*core.Breaker

	// ivalCol is the persisted v2 interval column of a snapshot-backed
	// layer (nil otherwise); ivalCache holds lazily built columns keyed by
	// grid for layers (or grids) without a persisted one. Columns are
	// immutable once built; the per-entry once makes concurrent queries on
	// the same grid share one build. objStats caches the bounds/extent
	// summary grid derivation needs.
	ivalMu    sync.Mutex
	ivalCache map[interval.Grid]*ivalEntry
	ivalCol   *interval.Column
	statsOnce sync.Once
	objBounds geom.Rect
	objExtent float64

	// selfView caches the layer's single-component View (layers are
	// immutable, so one view serves every query).
	viewOnce sync.Once
	selfView *View
}

// NewLayer bulk-loads an R-tree over the dataset's object MBRs.
func NewLayer(d *data.Dataset) *Layer {
	entries := make([]rtree.Entry, len(d.Objects))
	for i, p := range d.Objects {
		entries[i] = rtree.Entry{Bounds: p.Bounds(), ID: i}
	}
	return &Layer{
		Data:    d,
		Index:   rtree.NewBulk(entries),
		Origin:  "memory",
		edgeIdx: make([]atomic.Pointer[edgeindex.Index], len(d.Objects)),
	}
}

// NewLayerFromSnapshot builds a query-ready layer over an opened store
// snapshot: the dataset's polygons are views into the (possibly
// memory-mapped) file, the R-tree is materialized from the persisted
// packed image instead of being re-bulk-loaded, edge indexes hydrate
// lazily from the persisted box hierarchies, and persisted raster
// signatures short-circuit refinement. The layer keeps the snapshot open
// for its lifetime; callers must not Close it while the layer is in use.
func NewLayerFromSnapshot(s *store.Snapshot) (*Layer, error) {
	tree, err := s.Tree()
	if err != nil {
		return nil, err
	}
	d := s.Dataset()
	l := &Layer{
		Data:    d,
		Index:   tree,
		Origin:  "snapshot:" + s.Meta().Name,
		edgeIdx: make([]atomic.Pointer[edgeindex.Index], len(d.Objects)),
		snap:    s,
	}
	if s.HasSignatures() {
		l.sigRes = s.SigRes()
		l.sigs = make([]raster.Signature, len(d.Objects))
		for i := range l.sigs {
			l.sigs[i] = s.Signature(i)
		}
	}
	l.ivalCol = s.Intervals()
	return l, nil
}

type ivalEntry struct {
	once sync.Once
	col  *interval.Column
}

// objectStats caches the layer's MBR union and characteristic extent,
// the inputs of canonical interval-grid derivation.
func (l *Layer) objectStats() (geom.Rect, float64) {
	l.statsOnce.Do(func() {
		l.objBounds, l.objExtent = interval.ObjectStats(l.Data.Objects)
	})
	return l.objBounds, l.objExtent
}

// intervalGrid returns the layer's own canonical interval grid: the
// persisted column's grid when the snapshot carries one, else the
// deterministic derivation the writer would have used. ok is false for
// empty or non-finite layers, and for snapshot-backed layers whose file
// carries no interval section — a pre-v2 (or `save ... nointervals`)
// snapshot is a v1 artifact and serves the v1 signature path rather
// than silently rebuilding at query time what the writer omitted.
func (l *Layer) intervalGrid() (interval.Grid, bool) {
	if c := l.ivalCol; c != nil {
		return c.Grid, true
	}
	if l.snap != nil {
		return interval.Grid{}, false
	}
	b, e := l.objectStats()
	mnx, mny, size, fits := interval.FitSquare(b)
	if !fits {
		return interval.Grid{}, false
	}
	return interval.Grid{MinX: mnx, MinY: mny, Size: size, Order: interval.ChooseOrder(size, e)}, true
}

// Intervals returns the layer's interval column on grid g: the persisted
// column when its grid matches exactly, else a lazily built one cached
// per grid (layers are immutable, so a grid's column never changes).
// Snapshot-backed layers without a persisted interval section never
// build lazily — they are v1 artifacts and return nil so queries fall
// back to the v1 signature path (see intervalGrid). Safe for concurrent
// callers; concurrent first requests for one grid share a single build.
func (l *Layer) Intervals(g interval.Grid) *interval.Column {
	if !g.Valid() {
		return nil
	}
	if c := l.ivalCol; c != nil && c.Grid == g {
		return c
	}
	if l.snap != nil && l.ivalCol == nil {
		return nil
	}
	l.ivalMu.Lock()
	if l.ivalCache == nil {
		l.ivalCache = map[interval.Grid]*ivalEntry{}
	}
	e := l.ivalCache[g]
	if e == nil {
		e = &ivalEntry{}
		l.ivalCache[g] = e
	}
	l.ivalMu.Unlock()
	e.once.Do(func() {
		e.col = interval.Build(l.Data.Objects, g)
	})
	return e.col
}

// pairGrid derives the shared interval grid for a join between a and b:
// the canonical square of the union of both layers' bounds, at the finer
// of the two layers' auto orders (or the forced order when order > 0).
// When both layers carry persisted columns on the identical grid — the
// common case for snapshots saved over the same data domain — that grid
// is used directly, so neither side rebuilds anything.
func pairGrid(a, b *Layer, order int) (interval.Grid, bool) {
	if order <= 0 && a.ivalCol != nil && b.ivalCol != nil && a.ivalCol.Grid == b.ivalCol.Grid {
		return a.ivalCol.Grid, true
	}
	ba, ea := a.objectStats()
	bb, eb := b.objectStats()
	mnx, mny, size, ok := interval.FitSquare(ba.Union(bb))
	if !ok {
		return interval.Grid{}, false
	}
	if order <= 0 {
		order = max(interval.ChooseOrder(size, ea), interval.ChooseOrder(size, eb))
	}
	if order < interval.MinOrder || order > interval.MaxOrder {
		return interval.Grid{}, false
	}
	return interval.Grid{MinX: mnx, MinY: mny, Size: size, Order: order}, true
}

// intervalColumns resolves both sides' interval columns for a join,
// honoring the NoIntervals ablation. Either both columns are non-nil and
// share one grid, or both are nil (the v1 path).
func intervalColumns(a, b *Layer, noIntervals bool, order int) (*interval.Column, *interval.Column) {
	if noIntervals {
		return nil, nil
	}
	g, ok := pairGrid(a, b, order)
	if !ok {
		return nil, nil
	}
	ca, cb := a.Intervals(g), b.Intervals(g)
	if ca == nil || cb == nil {
		return nil, nil
	}
	return ca, cb
}

// Snapshot returns the layer's backing snapshot and true when the layer
// was loaded from one (see NewLayerFromSnapshot).
func (l *Layer) Snapshot() (*store.Snapshot, bool) { return l.snap, l.snap != nil }

// Signature returns object id's persisted conservative raster signature,
// or nil when the layer carries none. The signature is immutable and
// shared; refinement consults it through the PairContext.
func (l *Layer) Signature(id int) *raster.Signature {
	if l.sigs == nil {
		return nil
	}
	return &l.sigs[id]
}

// signatureRes returns the resolution for query-side signatures matched
// against this layer's persisted ones.
func (l *Layer) signatureRes() int {
	if l.sigRes > 0 {
		return l.sigRes
	}
	return raster.DefaultSignatureRes
}

// querySignature computes the query polygon's signature once per
// selection when the layer has persisted signatures to pair it with (and
// the ablation knob allows), else nil.
func (l *Layer) querySignature(query *geom.Polygon, noSig bool) *raster.Signature {
	if noSig || l.sigs == nil {
		return nil
	}
	sg := raster.ComputeSignature(query, l.signatureRes())
	return &sg
}

// Hulls returns the layer's pre-computed convex-hull approximations,
// building them on first use (the pre-processing cost of the geometric
// filter; safe for concurrent callers).
func (l *Layer) Hulls() *filter.HullSet {
	l.hullOnce.Do(func() {
		l.hulls = filter.NewHullSet(l.Data.Objects)
	})
	return l.hulls
}

// EdgeIndex returns object id's edge index, building it on first use. The
// index is immutable once published, so concurrent callers may race to
// build: every build of the same object is identical and losers' copies
// are dropped, which keeps the fast path a single atomic load with no
// lock. The cached indexes are what joins reuse across a whole inner
// loop instead of rescanning the object's edge chain per pair.
func (l *Layer) EdgeIndex(id int) *edgeindex.Index {
	if ix := l.edgeIdx[id].Load(); ix != nil {
		return ix
	}
	ix := l.buildEdgeIndex(id)
	if !l.edgeIdx[id].CompareAndSwap(nil, ix) {
		return l.edgeIdx[id].Load()
	}
	return ix
}

// buildEdgeIndex hydrates one object's edge index: snapshot-backed layers
// reattach the persisted box hierarchy (no box recomputation — the boxes
// are CRC-verified views into the file), others run the O(n) build.
func (l *Layer) buildEdgeIndex(id int) *edgeindex.Index {
	p := l.Data.Objects[id]
	if l.snap != nil && l.snap.HasEdgeBoxes() {
		if ix, ok := edgeindex.FromFlatBoxes(p, l.snap.EdgeBoxes(id)); ok {
			return ix
		}
	}
	return edgeindex.New(p)
}

// Breaker returns the circuit breaker guarding the hardware filter for
// queries pairing this layer with other, creating a closed breaker with
// the default cooldown on first use. The breaker is long-lived: it
// persists across queries, so a sentinel disagreement in one join keeps
// the hardware filter disabled for subsequent queries on the same pair
// until a half-open probe verifies recovery. Selections use the layer
// paired with itself (other == l). Safe for concurrent callers.
func (l *Layer) Breaker(other *Layer) *core.Breaker {
	l.breakerMu.Lock()
	defer l.breakerMu.Unlock()
	if l.breakers == nil {
		l.breakers = map[*Layer]*core.Breaker{}
	}
	b := l.breakers[other]
	if b == nil {
		b = core.NewBreaker(0)
		l.breakers[other] = b
	}
	return b
}

// SetBreaker installs a custom breaker (e.g. a shorter cooldown) for
// queries pairing this layer with other, replacing any existing one.
func (l *Layer) SetBreaker(other *Layer, b *core.Breaker) {
	l.breakerMu.Lock()
	defer l.breakerMu.Unlock()
	if l.breakers == nil {
		l.breakers = map[*Layer]*core.Breaker{}
	}
	l.breakers[other] = b
}

// Cost is the per-stage cost breakdown of one query, mirroring the cost
// bars in the paper's figures.
type Cost struct {
	MBRFilter          time.Duration // stage 1: index traversal
	IntermediateFilter time.Duration // stage 2: interior / 0-object / 1-object
	GeometryComparison time.Duration // stage 3: refinement tests

	Candidates    int // objects or pairs surviving MBR filtering
	FilterHits    int // positives identified by the intermediate filter
	FilterRejects int // negatives proven by the intermediate filter
	Compared      int // pairs sent to geometry comparison
	Results       int // final result count
}

// Total returns the summed stage costs.
func (c Cost) Total() time.Duration {
	return c.MBRFilter + c.IntermediateFilter + c.GeometryComparison
}

// Add accumulates other into c (for averaging over a query set).
func (c *Cost) Add(other Cost) {
	c.MBRFilter += other.MBRFilter
	c.IntermediateFilter += other.IntermediateFilter
	c.GeometryComparison += other.GeometryComparison
	c.Candidates += other.Candidates
	c.FilterHits += other.FilterHits
	c.FilterRejects += other.FilterRejects
	c.Compared += other.Compared
	c.Results += other.Results
}

// Scale divides all costs and counts by n, for per-query averages.
func (c Cost) Scale(n int) Cost {
	if n <= 0 {
		return c
	}
	return Cost{
		MBRFilter:          c.MBRFilter / time.Duration(n),
		IntermediateFilter: c.IntermediateFilter / time.Duration(n),
		GeometryComparison: c.GeometryComparison / time.Duration(n),
		Candidates:         c.Candidates / n,
		FilterHits:         c.FilterHits / n,
		FilterRejects:      c.FilterRejects / n,
		Compared:           c.Compared / n,
		Results:            c.Results / n,
	}
}

// SelectionOptions configure an intersection selection.
type SelectionOptions struct {
	// InteriorLevel is the interior filter's tiling level; negative
	// disables the intermediate filter entirely (the paper's level-0 runs
	// build a 1×1 tiling).
	InteriorLevel int
	// MaxCandidates, when positive, aborts the selection with a
	// *BudgetError if MBR filtering yields more candidates than this.
	MaxCandidates int
	// NoSignatures disables the persisted raster-signature filter for
	// snapshot-backed layers. Ablation knob; no effect on layers without
	// signatures.
	NoSignatures bool
	// NoIntervals disables the v2 interval-approximation filter (true
	// hits and rejects); the v1 signature path then decides alone.
	// Ablation/baseline knob.
	NoIntervals bool
	// Sink, when non-nil, receives result IDs incrementally as refinement
	// proceeds — the interior-filter hits, then each refined batch's
	// positives — from the calling goroutine, in result order. The slice
	// is reused between calls — consume it before returning, don't retain
	// it. A non-nil return stops the selection after the current batch and
	// surfaces as the *PartialError cause. Rows already handed to the sink
	// are still present in the returned slice.
	Sink func(ids []int) error
}

// collector gathers MBR-filter output while enforcing a candidate budget
// and periodic context checks inside the index traversal. The add method
// is the visit callback handed to the index; after traversal the caller
// consults err.
type collector struct {
	ctx    context.Context
	op     string
	budget int
	items  []Pair
	err    error
	visits int
}

func (c *collector) add(item Pair) bool {
	c.visits++
	if c.visits&1023 == 0 && c.ctx.Err() != nil {
		c.err = &PartialError{Op: c.op, Done: 0, Total: len(c.items), Err: ctxCause(c.ctx)}
		return false
	}
	if c.budget > 0 && len(c.items) >= c.budget {
		c.err = &BudgetError{Op: c.op, Candidates: len(c.items) + 1, Budget: c.budget}
		return false
	}
	c.items = append(c.items, item)
	return true
}

// IntersectionSelect returns the IDs of the layer's objects whose regions
// intersect the query polygon, processed through the three-stage pipeline:
// interior-filter hits first, in R-tree search order, then the refined
// IDs in the same order. The tester decides software vs hardware-assisted
// refinement and accumulates the pair tests. A cancelled or expired
// context yields the results so far plus a *PartialError; an overflowing
// candidate budget yields a *BudgetError.
func IntersectionSelect(ctx context.Context, layer *Layer, query *geom.Polygon, tester *core.Tester, opt SelectionOptions) ([]int, Cost, error) {
	return IntersectionSelectView(ctx, layer.View(), query, tester, opt)
}

// Pair is one join result: indices into the two layers' object slices.
type Pair struct {
	A, B int
}

// JoinOptions configure an intersection join's intermediate filtering and
// resource guards.
type JoinOptions struct {
	// UseHullFilter enables Brinkhoff's geometric filter: candidate pairs
	// whose pre-computed convex hulls are disjoint are rejected before
	// geometry comparison. Hull construction (a pre-processing cost the
	// paper's hardware technique avoids) happens lazily on first use and
	// is charged to the intermediate-filter stage of that first query.
	UseHullFilter bool
	// MaxCandidates, when positive, aborts the join with a *BudgetError
	// if the MBR join yields more candidate pairs than this — the guard
	// against pathological MBR skew materializing an unbounded pair list.
	MaxCandidates int
	// NoEdgeIndex disables the cached per-object edge indexes during
	// refinement (every pair falls back to the linear edge scan). Ablation
	// knob for the locality benchmarks.
	NoEdgeIndex bool
	// NoLocalityOrder disables sorting candidate pairs by outer object
	// before refinement, leaving them in R-tree join emission order.
	// Ablation knob for the locality benchmarks.
	NoLocalityOrder bool
	// NoBreaker detaches the layer pair's circuit breaker from this
	// query's pair tests: the hardware filter runs (and sentinel samples
	// are taken) regardless of prior disagreements. Ablation/baseline knob.
	NoBreaker bool
	// NoSignatures disables the persisted raster-signature filter; see
	// SelectionOptions.NoSignatures.
	NoSignatures bool
	// NoIntervals disables the v2 interval-approximation filter; see
	// SelectionOptions.NoIntervals.
	NoIntervals bool
	// IntervalOrder forces the shared interval grid's order (2..15); 0
	// derives it from the layers. The benchmark sweep's resolution knob.
	IntervalOrder int
}

// pipeline maps the options onto the join executor's, with the
// Workers == 1 schedule.
func (o JoinOptions) pipeline() PipelineOptions {
	return PipelineOptions{Workers: 1, MaxCandidates: o.MaxCandidates,
		NoEdgeIndex: o.NoEdgeIndex, NoLocalityOrder: o.NoLocalityOrder, NoBreaker: o.NoBreaker,
		NoSignatures: o.NoSignatures, NoIntervals: o.NoIntervals, IntervalOrder: o.IntervalOrder}
}

// sortPairsByOuter orders candidate pairs by (A, B) so refinement visits
// each outer object's pairs consecutively: the outer polygon's vertices
// and edge index stay cache-hot across its whole run, and the lazily
// built per-object indexes are reused immediately after construction.
func sortPairsByOuter(pairs []Pair) {
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].A != pairs[j].A {
			return pairs[i].A < pairs[j].A
		}
		return pairs[i].B < pairs[j].B
	})
}

// pairContexts returns a per-pair PairContext source for a join between
// layers a and b, honoring the NoEdgeIndex, NoBreaker, and NoSignatures
// ablations. All contexts share the pair's breaker, so any worker's
// sentinel disagreement degrades the whole join. Persisted signatures
// attach only on the sides that carry them; the tester's bounds check
// makes a one-sided or absent signature merely inconclusive. iva and
// ivb, when both non-nil (see intervalColumns), attach the objects' v2
// interval spans — always from one shared grid, which is what makes
// them comparable; the v1 signatures stay attached too and still decide
// pairs the interval check leaves inconclusive.
func pairContexts(a, b *Layer, noIndex, noBreaker, noSig bool, iva, ivb *interval.Column) func(Pair) core.PairContext {
	var br *core.Breaker
	if !noBreaker {
		br = a.Breaker(b)
	}
	sigA, sigB := a.sigs != nil && !noSig, b.sigs != nil && !noSig
	ivals := iva != nil && ivb != nil
	if noIndex && !sigA && !sigB && !ivals {
		return func(Pair) core.PairContext { return core.PairContext{Breaker: br} }
	}
	return func(pr Pair) core.PairContext {
		pc := core.PairContext{Breaker: br}
		if !noIndex {
			pc.PIndex, pc.QIndex = a.EdgeIndex(pr.A), b.EdgeIndex(pr.B)
		}
		if sigA {
			pc.PSig = a.Signature(pr.A)
		}
		if sigB {
			pc.QSig = b.Signature(pr.B)
		}
		if ivals {
			pc.PIv, pc.QIv = iva.Spans(pr.A), ivb.Spans(pr.B)
		}
		return pc
	}
}

// IntersectionJoin returns all pairs (a from layer a, b from layer b)
// whose regions intersect. A cancelled or expired context yields the
// pairs found so far plus a *PartialError.
func IntersectionJoin(ctx context.Context, a, b *Layer, tester *core.Tester) ([]Pair, Cost, error) {
	return IntersectionJoinOpt(ctx, a, b, tester, JoinOptions{})
}

// IntersectionJoinOpt is IntersectionJoin with intermediate-filter options
// and resource guards. It runs the join executor's Workers == 1 schedule
// on the caller's tester, whose Stats accumulate the pair tests.
func IntersectionJoinOpt(ctx context.Context, a, b *Layer, tester *core.Tester, opt JoinOptions) ([]Pair, Cost, error) {
	return IntersectionJoinView(ctx, a.View(), b.View(), tester, opt)
}

// DistanceFilterOptions configure the within-distance join's intermediate
// filters and resource guards.
type DistanceFilterOptions struct {
	// Use0Object enables the MBR-only distance upper-bound filter.
	Use0Object bool
	// Use1Object enables the upper bound using the larger object's actual
	// geometry (paper §4.1.1: "very aggressive filtering").
	Use1Object bool
	// MaxCandidates, when positive, aborts the query with a *BudgetError
	// if MBR filtering yields more candidates than this.
	MaxCandidates int
	// NoEdgeIndex and NoLocalityOrder are the join-refinement ablation
	// knobs, as in JoinOptions.
	NoEdgeIndex     bool
	NoLocalityOrder bool
	// NoBreaker detaches the layer pair's circuit breaker; see
	// JoinOptions.NoBreaker.
	NoBreaker bool
	// NoSignatures disables the persisted raster-signature filter; see
	// SelectionOptions.NoSignatures.
	NoSignatures bool
}

// pipeline maps the options onto the join executor's, with the
// Workers == 1 schedule.
func (o DistanceFilterOptions) pipeline() PipelineOptions {
	return PipelineOptions{Workers: 1, MaxCandidates: o.MaxCandidates,
		NoEdgeIndex: o.NoEdgeIndex, NoLocalityOrder: o.NoLocalityOrder, NoBreaker: o.NoBreaker,
		NoSignatures: o.NoSignatures}
}

// WithinDistanceJoin returns all pairs whose regions are within distance d
// of each other (the buffer query), processed through the three-stage
// pipeline with the 0-Object and 1-Object filters. Pre-pass hits come
// first, in candidate order, then the refined pairs in locality order.
// Cancellation and budget semantics match IntersectionJoinOpt.
func WithinDistanceJoin(ctx context.Context, a, b *Layer, d float64, tester *core.Tester, opt DistanceFilterOptions) ([]Pair, Cost, error) {
	return WithinDistanceJoinView(ctx, a.View(), b.View(), d, tester, opt)
}
