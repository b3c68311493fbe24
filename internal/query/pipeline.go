package query

import (
	"context"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/edgeindex"
	"repro/internal/filter"
	"repro/internal/geom"
	"repro/internal/interval"
	"repro/internal/rtree"
)

// This file implements the one executor for joins and selections: the
// paper's Figure-8 filter-and-refine algorithm — MBR candidate
// generation, an optional intermediate-filter pre-pass, then the tester's
// filter and refine calls — with the worker count choosing the schedule
// and nothing else. A selection is a join of the query polygon against
// the layer (see selectPlan).
//
// Workers == 1 refines each batch inline on the calling goroutine with
// one tester: the paper's serial Figure-8 loop, which IntersectionSelect,
// IntersectionJoinOpt and WithinDistanceJoin run with the caller's
// tester. Workers > 1 runs the staged batch pipeline: generation →
// filter (MBR / containment / persisted-signature, the render-free front
// of Algorithm 3.1) → refine (hardware filter + exact software tests) →
// emit, with bounded batch queues between the stages and a worker pool
// per stage. Batching keeps
// each stage's working set hot (the filter stage runs dense and
// branch-light over whole batches, modeled on 3DPipe's pipelined join
// framework), and the emit stage delivers refined batches to a streaming
// sink as they complete — clients measure time-to-first-row instead of
// time-to-last-row.
//
// Determinism: pre-pass hits come first, in candidate order; the rest
// are refined in locality order (selections keep R-tree search order),
// cut into the same batches on both
// schedules, and the staged emit restores batch sequence order. So the
// complete result — returned and streamed — is identical, bit for bit,
// whatever the worker count or batch size; differential tests pin this.

// PipelineOptions configure the join executor as the Pipeline* entry
// points expose it.
type PipelineOptions struct {
	// Workers is the number of refinement workers; 0 means GOMAXPROCS.
	// One worker refines inline on the calling goroutine; more run the
	// staged pipeline.
	Workers int
	// Tester builds each worker's refinement tester. Every worker needs
	// its own (a Tester owns a rendering context, like a per-thread GL
	// context); nil means hardware-assisted defaults.
	Tester func() *core.Tester
	// MaxCandidates, when positive, aborts the join with a *BudgetError
	// if the MBR join yields more candidate pairs than this.
	MaxCandidates int
	// NoEdgeIndex and NoLocalityOrder are the refinement ablation knobs,
	// as in JoinOptions: they disable the shared per-object edge indexes
	// and the outer-object candidate ordering / group-aligned batching.
	NoEdgeIndex     bool
	NoLocalityOrder bool
	// NoBreaker detaches the layer pair's circuit breaker; see
	// JoinOptions.NoBreaker.
	NoBreaker bool
	// NoSignatures disables the persisted raster-signature filter; see
	// SelectionOptions.NoSignatures.
	NoSignatures bool
	// NoIntervals disables the v2 interval-approximation filter; see
	// SelectionOptions.NoIntervals.
	NoIntervals bool
	// IntervalOrder forces the shared interval grid's order; see
	// JoinOptions.IntervalOrder.
	IntervalOrder int
	// BatchSize is the candidate-pair batch size; 0 means
	// core.DefaultBatchSize.
	BatchSize int
	// Sink, when non-nil, receives each completed batch's positive pairs
	// in sequence order as refinement finishes, from the calling
	// goroutine. The slice is reused between calls — consume it before
	// returning, don't retain it. A non-nil return stops the join:
	// completed batches still drain into the returned result, and the
	// error surfaces as the *PartialError cause (the streaming wind-down
	// path).
	Sink func(pairs []Pair) error
}

func (o PipelineOptions) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (o PipelineOptions) newTester() *core.Tester {
	if o.Tester != nil {
		return o.Tester()
	}
	return core.NewTester(core.Config{SWThreshold: core.DefaultSWThreshold})
}

// PipelineIntersectionJoin computes IntersectionJoinOpt's result set,
// streaming completed batches to opt.Sink. The result slice (and the
// concatenated sink batches) are in candidate order — with the default
// locality order, sorted by (A, B).
func PipelineIntersectionJoin(ctx context.Context, a, b *Layer, opt PipelineOptions) ([]Pair, core.Stats, error) {
	return PipelineIntersectionJoinView(ctx, a.View(), b.View(), opt)
}

// PipelineWithinDistanceJoin is PipelineIntersectionJoin for the buffer
// query, without the 0-/1-Object pre-pass.
func PipelineWithinDistanceJoin(ctx context.Context, a, b *Layer, d float64, opt PipelineOptions) ([]Pair, core.Stats, error) {
	return PipelineWithinDistanceJoinView(ctx, a.View(), b.View(), d, opt)
}

// PipelineIntersectionJoinView is PipelineIntersectionJoin over views;
// see joinViews for how composed views merge.
func PipelineIntersectionJoinView(ctx context.Context, a, b *View, opt PipelineOptions) ([]Pair, core.Stats, error) {
	pairs, _, stats, err := joinViews(a, b, opt, func(x, y *Layer, o PipelineOptions) ([]Pair, Cost, core.Stats, error) {
		return runJoin(ctx, intersectsPlan(x, y, "pipeline-join", false, o), o, nil)
	})
	return pairs, stats, err
}

// PipelineWithinDistanceJoinView is PipelineIntersectionJoinView for the
// buffer query.
func PipelineWithinDistanceJoinView(ctx context.Context, a, b *View, d float64, opt PipelineOptions) ([]Pair, core.Stats, error) {
	pairs, _, stats, err := joinViews(a, b, opt, func(x, y *Layer, o PipelineOptions) ([]Pair, Cost, core.Stats, error) {
		return runJoin(ctx, withinPlan(x, y, d, "pipeline-within-join", false, false, o), o, nil)
	})
	return pairs, stats, err
}

// pairTests are one predicate's per-pair tester calls: the staged
// pipeline's filter and refine halves, and the whole test that the
// inline schedule and post-panic software retries run.
type pairTests struct {
	filter func(*core.Tester, Pair) core.Verdict
	refine func(*core.Tester, Pair) bool
	full   func(*core.Tester, Pair) bool
}

// joinPlan is one predicate's Figure-8 recipe.
type joinPlan struct {
	op string
	// generate runs stage 1, the MBR filter.
	generate func(visit func(ea, eb rtree.Entry) bool)
	// prepass, when non-nil, is the stage-2 intermediate filter: it splits
	// the candidates into proven hits (in candidate order) and the pairs
	// left to refine, dropping proven misses.
	prepass func(cands []Pair) (hits, rest []Pair)
	// tests binds stage 3's per-pair tests. It runs once the candidates
	// are known, because binding may build the layers' interval columns.
	tests func() pairTests
}

// intersectsPlan is the intersection join's plan; hull enables
// Brinkhoff's convex-hull pre-pass.
func intersectsPlan(a, b *Layer, op string, hull bool, opt PipelineOptions) joinPlan {
	plan := joinPlan{
		op:       op,
		generate: func(visit func(ea, eb rtree.Entry) bool) { rtree.Join(a.Index, b.Index, visit) },
		tests: func() pairTests {
			iva, ivb := intervalColumns(a, b, opt.NoIntervals, opt.IntervalOrder)
			pcFor := pairContexts(a, b, opt.NoEdgeIndex, opt.NoBreaker, opt.NoSignatures, iva, ivb)
			pa, pb := a.Data.Objects, b.Data.Objects
			return pairTests{
				filter: func(t *core.Tester, pr Pair) core.Verdict {
					return t.FilterIntersects(pa[pr.A], pb[pr.B], pcFor(pr))
				},
				refine: func(t *core.Tester, pr Pair) bool {
					return t.RefineIntersects(pa[pr.A], pb[pr.B], pcFor(pr))
				},
				full: func(t *core.Tester, pr Pair) bool {
					return t.IntersectsCtx(pa[pr.A], pb[pr.B], pcFor(pr))
				},
			}
		},
	}
	if hull {
		// Hull construction happens lazily on first use and is charged to
		// the intermediate-filter stage of that first query.
		plan.prepass = func(cands []Pair) (hits, rest []Pair) {
			ha, hb := a.Hulls(), b.Hulls()
			rest = cands[:0]
			for _, pr := range cands {
				if filter.PairMayIntersect(ha, pr.A, hb, pr.B) {
					rest = append(rest, pr)
				}
			}
			return nil, rest
		}
	}
	return plan
}

// withinPlan is the within-distance join's plan; use0 and use1 enable the
// 0-Object and 1-Object distance upper bounds as the pre-pass. MBR
// distance lower-bounds object distance, so the MBR join loses no pair.
func withinPlan(a, b *Layer, d float64, op string, use0, use1 bool, opt PipelineOptions) joinPlan {
	plan := joinPlan{
		op:       op,
		generate: func(visit func(ea, eb rtree.Entry) bool) { rtree.JoinWithin(a.Index, b.Index, d, visit) },
		tests: func() pairTests {
			pcFor := pairContexts(a, b, opt.NoEdgeIndex, opt.NoBreaker, opt.NoSignatures, nil, nil)
			pa, pb := a.Data.Objects, b.Data.Objects
			return pairTests{
				filter: func(t *core.Tester, pr Pair) core.Verdict {
					return t.FilterWithin(pa[pr.A], pb[pr.B], d, pcFor(pr))
				},
				refine: func(t *core.Tester, pr Pair) bool {
					return t.RefineWithin(pa[pr.A], pb[pr.B], d, pcFor(pr))
				},
				full: func(t *core.Tester, pr Pair) bool {
					return t.WithinDistanceCtx(pa[pr.A], pb[pr.B], d, pcFor(pr))
				},
			}
		},
	}
	if use0 || use1 {
		plan.prepass = func(cands []Pair) (hits, rest []Pair) {
			rest = cands[:0]
			for _, pr := range cands {
				pa, pb := a.Data.Objects[pr.A], b.Data.Objects[pr.B]
				if use0 && filter.UpperBound0(pa.Bounds(), pb.Bounds()) <= d {
					hits = append(hits, pr)
					continue
				}
				if use1 {
					// Use the larger object's geometry against the smaller
					// object's MBR.
					big, smallBounds := pa, pb.Bounds()
					if pb.NumVerts() > pa.NumVerts() {
						big, smallBounds = pb, pa.Bounds()
					}
					if filter.UpperBound1(big, smallBounds) <= d {
						hits = append(hits, pr)
						continue
					}
				}
				rest = append(rest, pr)
			}
			return hits, rest
		}
	}
	return plan
}

// selectPlan is the intersection selection's plan: a join of the one
// query polygon (object 0 of the A side) against the layer, so candidate
// pairs are {0, id} in R-tree search order. The interior filter is the
// pre-pass when InteriorLevel >= 0; its build counts toward the stage,
// amortized over the candidates exactly as the paper describes. The query
// side's edge index, signature and interval spans on the layer's own grid
// are built once, when the tests are bound. Selections always run inline,
// so only the whole test is bound.
func selectPlan(layer *Layer, query *geom.Polygon, opt SelectionOptions) joinPlan {
	objs := layer.Data.Objects
	plan := joinPlan{
		op: "select",
		generate: func(visit func(ea, eb rtree.Entry) bool) {
			layer.Index.Search(query.Bounds(), func(e rtree.Entry) bool { return visit(rtree.Entry{}, e) })
		},
		tests: func() pairTests {
			qIdx := edgeindex.New(query)
			qSig := layer.querySignature(query, opt.NoSignatures)
			// The query polygon rasterizes once onto the layer's own
			// canonical grid; each candidate then contributes its cached (or
			// persisted) spans, so selections get the same true-hit/reject
			// verdicts as joins.
			var qIv interval.Spans
			var ivals *interval.Column
			if !opt.NoIntervals {
				if g, ok := layer.intervalGrid(); ok {
					if qIv = interval.Rasterize(query, g); len(qIv) > 0 {
						ivals = layer.Intervals(g)
					}
				}
			}
			br := layer.Breaker(layer)
			return pairTests{full: func(t *core.Tester, pr Pair) bool {
				pc := core.PairContext{PIndex: qIdx, QIndex: layer.EdgeIndex(pr.B), Breaker: br, PSig: qSig, QSig: layer.Signature(pr.B)}
				if ivals != nil {
					pc.PIv, pc.QIv = qIv, ivals.Spans(pr.B)
				}
				return t.IntersectsCtx(query, objs[pr.B], pc)
			}}
		},
	}
	if opt.InteriorLevel >= 0 {
		plan.prepass = func(cands []Pair) (hits, rest []Pair) {
			f := filter.NewInterior(query, opt.InteriorLevel)
			rest = cands[:0]
			for _, pr := range cands {
				if f.CoversRect(objs[pr.B].Bounds()) {
					hits = append(hits, pr)
				} else {
					rest = append(rest, pr)
				}
			}
			return hits, rest
		}
	}
	return plan
}

// runJoin is the join executor. tester, when non-nil, is the caller's
// tester for the Workers == 1 schedule: its Stats accumulate in place and
// the returned Stats carry only the executor's own counters. Otherwise
// every worker's tester comes from opt.Tester and the returned Stats sum
// them. Cost records each Figure-8 stage; Compared counts the refined
// candidates.
func runJoin(ctx context.Context, plan joinPlan, opt PipelineOptions, tester *core.Tester) ([]Pair, Cost, core.Stats, error) {
	var cost Cost
	start := time.Now()
	col := collector{ctx: ctx, op: plan.op, budget: opt.MaxCandidates}
	plan.generate(func(ea, eb rtree.Entry) bool {
		return col.add(Pair{ea.ID, eb.ID})
	})
	cands := col.items
	cost.MBRFilter = time.Since(start)
	cost.Candidates = len(cands)
	if col.err != nil {
		return nil, cost, core.Stats{}, col.err
	}

	var hits []Pair
	if plan.prepass != nil {
		start = time.Now()
		hits, cands = plan.prepass(cands)
		cost.IntermediateFilter = time.Since(start)
		cost.FilterHits = len(hits)
		cost.FilterRejects = cost.Candidates - len(hits) - len(cands)
	}

	// Refinement visits pairs in outer-object order so each outer
	// polygon's data (and its edge index) is touched in one run.
	start = time.Now()
	if !opt.NoLocalityOrder {
		sortPairsByOuter(cands)
	}
	results, done, stats, err := refineJoin(ctx, plan.op, hits, cands, plan.tests(), opt, tester)
	cost.GeometryComparison = time.Since(start)
	cost.Compared = done
	cost.Results = len(results)
	return results, cost, stats, err
}

// refineJoin emits the pre-pass hits, then refines cands on the schedule
// the worker count picks, appending positives after the hits. done counts
// the refined candidates.
//
// Both schedules share the failure semantics: a panicking test is
// retried on the software path and quarantined if that panics too (see
// worker.retry), cancellation returns the pairs refined so far with a
// *PartialError, and no goroutine outlives the call.
func refineJoin(ctx context.Context, op string, hits, cands []Pair, tests pairTests, opt PipelineOptions, tester *core.Tester) ([]Pair, int, core.Stats, error) {
	var stats core.Stats
	if opt.Sink != nil && len(hits) > 0 {
		if err := opt.Sink(hits); err != nil {
			return hits, 0, stats, &PartialError{Op: op, Done: 0, Total: len(cands), Err: err}
		}
		stats.StreamRowsEmitted += int64(len(hits))
	}
	batch := opt.BatchSize
	if batch <= 0 {
		batch = core.DefaultBatchSize
	}
	if opt.workers() > 1 {
		results, done, err := refineStaged(ctx, op, hits, cands, tests, opt, batch, &stats)
		return results, done, stats, err
	}
	t := tester
	if t == nil {
		t = opt.newTester()
	}
	results, done, err := refineInline(ctx, op, hits, cands, tests.full, opt, batch, t, &stats)
	if tester == nil {
		stats.Add(t.Stats)
	}
	return results, done, stats, err
}

// batchEnd returns the end of the batch that starts at lo. With locality
// order on, a batch extends past the nominal size to the end of the
// current outer object's run (bounded at 4×), so one outer polygon's
// pairs — and its lazily built edge index — stay on one worker pass.
func batchEnd(cands []Pair, lo, batch int, group bool) int {
	hi := min(lo+batch, len(cands))
	if group {
		limit := min(lo+4*batch, len(cands))
		for hi < limit && cands[hi].A == cands[hi-1].A {
			hi++
		}
	}
	return hi
}

// refineInline is the Workers == 1 schedule: each batch is refined on the
// calling goroutine, one whole per-pair test at a time, with ctx checked
// every cancelStride pairs, then handed to the sink.
func refineInline(ctx context.Context, op string, results, cands []Pair, full func(*core.Tester, Pair) bool,
	opt PipelineOptions, batch int, t *core.Tester, stats *core.Stats) ([]Pair, int, error) {

	start := time.Now()
	w := &worker{t: t}
	// The retry tester's counters fold into t, which on the serial entry
	// points is the caller's tester.
	defer func() {
		stats.PipelineRefineNS += int64(time.Since(start))
		if w.sw != nil {
			t.Stats.Add(w.sw.Stats)
		}
	}()
	emitted := len(results)
	flush := func() error {
		if opt.Sink == nil || len(results) == emitted {
			return nil
		}
		if err := opt.Sink(results[emitted:]); err != nil {
			return err
		}
		stats.StreamRowsEmitted += int64(len(results) - emitted)
		emitted = len(results)
		return nil
	}
	for lo, i := 0, 0; lo < len(cands); lo = i {
		hi := batchEnd(cands, lo, batch, !opt.NoLocalityOrder)
		for ; i < hi; i++ {
			if i%cancelStride == 0 && ctx.Err() != nil {
				_ = flush() // best effort: the refined rows stream out too
				return results, i, &PartialError{Op: op, Done: i, Total: len(cands), Err: ctxCause(ctx)}
			}
			pr := cands[i]
			keep, panicked := safeCall(t, pr, full)
			if panicked {
				keep = w.retry(pr, full)
			}
			if keep {
				results = append(results, pr)
			}
		}
		stats.PipelineBatches++
		if err := flush(); err != nil {
			return results, hi, &PartialError{Op: op, Done: hi, Total: len(cands), Err: err}
		}
	}
	return results, len(cands), nil
}

// pipeBatch is one candidate batch traveling through the stage queues.
type pipeBatch struct {
	seq   int
	pairs []Pair
	// keep is the per-pair verdict, filled in by the filter stage for
	// resolved pairs and the refine stage for the rest; emission order is
	// candidate order, so hits are read back out through it.
	keep []bool
	// undecided indexes into pairs the filter stage could not resolve.
	undecided []int32
}

// maxInt64 raises the atomic gauge to v if larger (the queue-depth
// high-water mark shared by the stage goroutines).
func maxInt64(g *atomic.Int64, v int64) {
	for {
		cur := g.Load()
		if v <= cur || g.CompareAndSwap(cur, v) {
			return
		}
	}
}

// refineStaged is the Workers > 1 schedule, the staged pipeline.
//
// Topology: a generator goroutine cuts the candidate slice into batches
// (see batchEnd) and feeds a bounded filter queue; filter workers resolve
// the render-free verdicts and pass batches to a bounded refine queue;
// refine workers decide the undecided pairs; the emit stage — the calling
// goroutine — restores sequence order and hands each completed batch to
// the sink. Bounded queues give backpressure end to end: a slow sink (a
// congested client connection) stalls emit, which stalls refine, which
// stalls filter and generation, so in-flight memory stays proportional to
// workers × batch size, never to the result set.
//
// A panicking filter verdict is retried as a whole test on the software
// tester; a panicking refine is retried refine-only (its filter half
// already counted). Workers check ctx per pair and the whole pipeline
// winds down through channel closes. A sink error cancels the pipeline's
// derived context and surfaces as the *PartialError cause.
func refineStaged(ctx context.Context, op string, results, candidates []Pair, tests pairTests,
	opt PipelineOptions, batch int, stats *core.Stats) ([]Pair, int, error) {

	refineWorkers := min(opt.workers(), max(1, (len(candidates)+batch-1)/batch))
	filterWorkers := max(1, (refineWorkers+1)/2)

	pctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)

	filterCh := make(chan *pipeBatch, filterWorkers)
	refineCh := make(chan *pipeBatch, refineWorkers)
	emitCh := make(chan *pipeBatch, refineWorkers)
	var queueDepth atomic.Int64
	var filterNS, refineNS atomic.Int64
	workerStats := make([]core.Stats, filterWorkers+refineWorkers)

	// Stage 0: generation.
	go func() {
		defer close(filterCh)
		seq := 0
		for lo := 0; lo < len(candidates); {
			hi := batchEnd(candidates, lo, batch, !opt.NoLocalityOrder)
			b := &pipeBatch{seq: seq, pairs: candidates[lo:hi]}
			select {
			case filterCh <- b:
				maxInt64(&queueDepth, int64(len(filterCh)))
			case <-pctx.Done():
				return
			}
			seq++
			lo = hi
		}
	}()

	var filterWG sync.WaitGroup
	for wi := range filterWorkers {
		filterWG.Add(1)
		go func() {
			defer filterWG.Done()
			w := &worker{t: opt.newTester()}
			start := time.Now()
			for b := range filterCh {
				if pctx.Err() != nil {
					continue // drain so the generator never blocks
				}
				b.keep = make([]bool, len(b.pairs))
				for i, pr := range b.pairs {
					if pctx.Err() != nil {
						b.keep = nil // mark unprocessed; emit skips it
						break
					}
					v, panicked := safeCall(w.t, pr, tests.filter)
					if panicked {
						// The whole test retries on the software path: the
						// panicked attempt never counted Tests, so the
						// retry re-counts from the top.
						b.keep[i] = w.retry(pr, tests.full)
						continue
					}
					switch v {
					case core.VerdictHit:
						b.keep[i] = true
					case core.VerdictUndecided:
						b.undecided = append(b.undecided, int32(i))
					}
				}
				if b.keep == nil {
					continue
				}
				select {
				case refineCh <- b:
					maxInt64(&queueDepth, int64(len(refineCh)))
				case <-pctx.Done():
				}
			}
			filterNS.Add(int64(time.Since(start)))
			workerStats[wi] = w.stats()
		}()
	}
	go func() {
		filterWG.Wait()
		close(refineCh)
	}()

	var refineWG sync.WaitGroup
	for wi := range refineWorkers {
		refineWG.Add(1)
		go func() {
			defer refineWG.Done()
			w := &worker{t: opt.newTester()}
			start := time.Now()
			for b := range refineCh {
				if pctx.Err() != nil {
					continue
				}
				done := true
				for _, i := range b.undecided {
					if pctx.Err() != nil {
						done = false
						break
					}
					pr := b.pairs[i]
					keep, panicked := safeCall(w.t, pr, tests.refine)
					if panicked {
						// Refine-only retry: the pair's filter half already
						// counted on the filter worker's tester, so the
						// software retry supplies just the resolution.
						keep = w.retry(pr, tests.refine)
					}
					b.keep[i] = keep
				}
				if !done {
					continue
				}
				select {
				case emitCh <- b:
					maxInt64(&queueDepth, int64(len(emitCh)))
				case <-pctx.Done():
				}
			}
			refineNS.Add(int64(time.Since(start)))
			workerStats[filterWorkers+wi] = w.stats()
		}()
	}
	go func() {
		refineWG.Wait()
		close(emitCh)
	}()

	// Stage 3: emit, on the calling goroutine. Batches are re-sequenced so
	// the stream (and the returned slice) follow candidate order; on
	// wind-down the completed out-of-order tail still drains, ascending.
	processed := 0
	var sinkErr error
	pending := map[int]*pipeBatch{}
	next := 0
	handle := func(b *pipeBatch) {
		n := len(results)
		for i, keep := range b.keep {
			if keep {
				results = append(results, b.pairs[i])
			}
		}
		processed += len(b.pairs)
		stats.PipelineBatches++
		if opt.Sink != nil && sinkErr == nil && len(results) > n {
			if err := opt.Sink(results[n:]); err != nil {
				sinkErr = err
				cancel(sinkErr)
			} else {
				stats.StreamRowsEmitted += int64(len(results) - n)
			}
		}
	}
	for b := range emitCh {
		pending[b.seq] = b
		for {
			nb, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			next++
			handle(nb)
		}
	}
	if len(pending) > 0 {
		seqs := make([]int, 0, len(pending))
		for s := range pending {
			seqs = append(seqs, s)
		}
		sort.Ints(seqs)
		for _, s := range seqs {
			handle(pending[s])
		}
	}

	for _, ws := range workerStats {
		stats.Add(ws)
	}
	stats.PipelineFilterNS += filterNS.Load()
	stats.PipelineRefineNS += refineNS.Load()
	maxInt64(&queueDepth, stats.PipelineQueueDepth)
	stats.PipelineQueueDepth = queueDepth.Load()

	if sinkErr != nil {
		return results, processed, &PartialError{Op: op, Done: processed, Total: len(candidates), Err: sinkErr}
	}
	if ctx.Err() != nil {
		return results, processed, &PartialError{Op: op, Done: processed, Total: len(candidates), Err: ctxCause(ctx)}
	}
	return results, processed, nil
}

// safeCall runs one tester call with panic isolation. It never lets a
// panic escape: the call's result (the zero value after a panic) and
// whether it panicked are reported to the caller instead.
func safeCall[T any](t *core.Tester, pr Pair, call func(*core.Tester, Pair) T) (v T, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			var zero T
			v, panicked = zero, true
		}
	}()
	return call(t, pr), false
}

// worker is one schedule worker's tester plus the software-only retry
// tester it builds on its first panic.
type worker struct {
	t, sw *core.Tester
}

// retry follows a panicked test: it counts the panic and reruns test
// once on the software path with fault injection disarmed — the hw→sw
// degradation path. A second panic quarantines the pair: it is counted
// and dropped from the result.
func (w *worker) retry(pr Pair, test func(*core.Tester, Pair) bool) bool {
	w.t.Stats.Panics++
	if w.sw == nil {
		cfg := w.t.Config()
		cfg.DisableHardware = true
		cfg.Faults = nil
		w.sw = core.NewTester(cfg)
	}
	keep, panicked := safeCall(w.sw, pr, test)
	if panicked {
		w.t.Stats.Quarantined++
	}
	return keep
}

// stats returns the worker's counters with the retry tester's folded in.
func (w *worker) stats() core.Stats {
	s := w.t.Stats
	if w.sw != nil {
		s.Add(w.sw.Stats)
	}
	return s
}
