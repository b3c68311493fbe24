// Package core implements the paper's contribution: hardware-assisted
// refinement tests for spatial predicates. The intersection test is
// Algorithm 3.1 — a software point-in-polygon step, a conservative
// hardware segment-intersection filter rendered on the simulated graphics
// card (internal/raster), and the software plane sweep only for pairs the
// filter cannot reject. The within-distance test renders the boundaries
// widened by the query distance (Figure 6, Equation 1) under a uniform
// projection and falls back to the software minDist algorithm when the
// hardware filter is inconclusive or the required line width exceeds the
// hardware limit.
//
// Both tests are exact: the hardware step only ever rejects pairs whose
// negative answer is guaranteed by the conservative rasterization
// properties of the renderer, so the combined result always equals the
// software-only result. The adaptive SWThreshold (paper §4.3) skips the
// hardware filter for simple polygon pairs where the fixed buffer-search
// overhead would exceed the software test itself.
package core

import (
	"repro/internal/dist"
	"repro/internal/edgeindex"
	"repro/internal/faultinject"
	"repro/internal/geom"
	"repro/internal/interval"
	"repro/internal/raster"
	"repro/internal/sweep"
	"time"
)

// Default configuration values. The paper finds an 8×8 window the best
// overall balance on its platform (§5) and thresholds around 300–900
// depending on resolution (§4.3).
const (
	DefaultResolution  = 8
	DefaultSWThreshold = 500

	// DefaultCrossCutoff routes the software segment test to the all-pairs
	// algorithm when len(red)·len(blue) of the restricted candidate sets is
	// at or below it. The restricted sets are usually tiny, and below this
	// work product the O(n·m) scan with its bbox pre-test beats the plane
	// sweep's sort-and-tree overhead by a wide margin; above it the
	// O((n+m)log(n+m)) sweep takes over. Both algorithms are exact, so the
	// cutoff is purely a performance knob. 16384 (128×128 edges) captures
	// nearly all of the all-pairs win on the evaluation joins while keeping
	// the worst-case cross test subquadratic.
	DefaultCrossCutoff = 16384

	// DefaultSentinelEvery re-checks one in this many hardware-filter
	// negatives against the exact software test. Negatives are the only
	// verdicts the engine takes on trust (every positive is confirmed by
	// the exact test anyway), so sampling them buys a bounded-latency
	// detector for a broken conservative-rasterization invariant at ~1.6%
	// re-check overhead on the rejected population.
	DefaultSentinelEvery = 64

	// DefaultBatchSize is the pipeline's candidate-pair batch size. Large
	// enough that the per-batch queue handoff amortizes to noise, small
	// enough that the first refined batch — the client's time-to-first-row
	// — arrives after a fraction of a percent of the join.
	// spatialbench -exp pipeline sweeps the value.
	DefaultBatchSize = 256
)

// Config controls a Tester.
type Config struct {
	// Resolution is the rendering window's width and height in pixels
	// (the paper sweeps 1–32). Zero means DefaultResolution.
	Resolution int
	// SWThreshold skips the hardware filter when the two polygons have
	// n+m vertices at or below it (paper §4.3). Zero is a valid setting
	// (always use hardware); use DefaultSWThreshold for the tuned value.
	SWThreshold int
	// LineWidth is the anti-aliased line width in pixels for the
	// intersection filter. Zero means the OpenGL default √2; the value is
	// capped by raster.MaxLineWidth.
	LineWidth float64
	// DisableHardware turns the Tester into the software-only baseline.
	DisableHardware bool
	// UseAccum selects the accumulation-buffer overlap protocol of
	// Algorithm 3.1 (two half-intensity renderings added, then a Minmax
	// search for full intensity) instead of the default occlusion-query
	// protocol (render the first layer, test the second layer's fragments
	// against the buffer with early exit). Hoff et al., cited in §3, list
	// buffer-test variants of exactly this kind; results are identical,
	// and the accumulation path remains for the protocol ablation bench.
	UseAccum bool
	// CrossCutoff overrides the adaptive software cross-test dispatch:
	// candidate-set products at or below the cutoff use the all-pairs scan,
	// larger ones the plane sweep. Zero means DefaultCrossCutoff; negative
	// disables the dispatch entirely (every pair goes to the sweep, the
	// pre-edge-index behaviour the locality benchmarks use as baseline).
	// Ignored when Software.Algorithm selects a specific algorithm.
	CrossCutoff int
	// SentinelEvery controls the sentinel verifier: every Nth hardware-
	// filter negative is re-checked against the exact software test, and a
	// disagreement trips the PairContext's circuit breaker. Zero means
	// DefaultSentinelEvery; negative disables verification. The sample is
	// a deterministic per-tester counter, so runs are reproducible.
	SentinelEvery int
	// Software selects the software segment-intersection algorithm.
	Software sweep.Options
	// Faults, when non-nil, arms deterministic fault injection at the
	// tester's hook sites (test entry, hardware-filter verdict, raster
	// draw path). Production configurations leave it nil; the resilience
	// tests use it to prove degradation semantics. See internal/faultinject.
	Faults *faultinject.Injector
}

// Stats counts how pair tests were resolved; the evaluation harness reads
// these to report filter effectiveness.
type Stats struct {
	Tests       int64 // pair tests started
	MBRRejects  int64 // rejected by the MBR pre-test
	PIPHits     int64 // resolved positive by point-in-polygon containment
	SWDirect    int64 // sent straight to software (threshold or disabled)
	HWRejects   int64 // rejected by the hardware filter
	HWPassed    int64 // hardware inconclusive, decided by software
	HWFallbacks int64 // distance only: line width over the hardware limit
	// BreakerOpenSkips counts pair tests routed straight to the exact
	// software path because the pair's circuit breaker was open (it joins
	// the resolution partition: Tests == MBRRejects + IntervalTrueHits +
	// IntervalRejects + PIPHits + SigRejects + SWDirect + HWRejects +
	// HWPassed + HWFallbacks + BreakerOpenSkips).
	BreakerOpenSkips int64

	// Persisted-signature filter accounting (see raster.Signature and
	// PairContext.PSig/QSig). A signature check runs after containment is
	// excluded and before any rendering; a reject resolves the pair
	// negative without touching the hardware filter or the software test.
	SigChecks  int64 // pair tests that consulted both objects' signatures
	SigRejects int64 // pairs resolved negative by signature disjointness

	// Interval-approximation filter accounting (see internal/interval and
	// PairContext.PIv/QIv). The three-valued interval verdict runs right
	// after the MBR pre-test: a true hit resolves the pair POSITIVE with
	// no refinement at all (something no v1 filter can do), a reject
	// resolves it negative, and an inconclusive pair proceeds through the
	// v1 path unchanged. TrueHits and Rejects join the resolution
	// partition; Checks and Inconclusive are observability counters.
	IntervalChecks       int64 // pair tests where both sides had spans
	IntervalTrueHits     int64 // pairs resolved positive by full/full overlap
	IntervalRejects      int64 // pairs resolved negative by span disjointness
	IntervalInconclusive int64 // interval checks that decided nothing

	// Resilience accounting, filled by the join executor's panic
	// isolation (pair tests that fault are not part of the Tests
	// partition above: a panic at the test entry fires before Tests is
	// incremented, and a pair recovered mid-test is re-counted by its
	// software retry).
	Panics      int64 // refinement panics recovered and retried in software
	Quarantined int64 // pairs dropped because the software retry panicked too

	// Sentinel verifier accounting. A disagreement is a hardware negative
	// the exact test overturned: the pair is counted under HWPassed (it
	// was, after all, decided by software) and the verdict corrected, so
	// sampled pairs are always exact even before the breaker reacts.
	SentinelChecks        int64 // hardware negatives re-checked in software
	SentinelDisagreements int64 // negatives the exact test overturned
	BreakerTrips          int64 // breaker transitions to open observed here
	BreakerRecoveries     int64 // half-open probes that closed the breaker

	// Edge-index effectiveness (see internal/edgeindex and PairContext).
	EdgeIndexHits         int64 // pair tests that consulted at least one edge index
	EdgeIndexSkippedEdges int64 // edges the index hierarchies pruned unexamined
	// DirtyClearPixelsSaved counts framebuffer pixels the dirty-region
	// clear did not have to zero between pair tests (internal/raster).
	DirtyClearPixelsSaved int64

	// Wall-clock decomposition of the refinement work.
	HWTime      time.Duration // rendering + buffer search
	SWTime      time.Duration // software segment / distance tests
	CollectTime time.Duration // candidate-edge collection (shared by both)

	// Pipeline accounting, filled by the join executor (internal/query)
	// rather than by the tester itself: batches refined, wall time the
	// filter and refine stages spent (the inline one-worker schedule
	// counts all of it as refine), the deepest queue backlog
	// observed (a bounded gauge — Add keeps the max, not the sum), and
	// result rows handed to a streaming sink.
	PipelineBatches    int64
	PipelineFilterNS   int64
	PipelineRefineNS   int64
	PipelineQueueDepth int64
	StreamRowsEmitted  int64
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Tests += other.Tests
	s.MBRRejects += other.MBRRejects
	s.PIPHits += other.PIPHits
	s.SWDirect += other.SWDirect
	s.HWRejects += other.HWRejects
	s.HWPassed += other.HWPassed
	s.HWFallbacks += other.HWFallbacks
	s.BreakerOpenSkips += other.BreakerOpenSkips
	s.SigChecks += other.SigChecks
	s.SigRejects += other.SigRejects
	s.IntervalChecks += other.IntervalChecks
	s.IntervalTrueHits += other.IntervalTrueHits
	s.IntervalRejects += other.IntervalRejects
	s.IntervalInconclusive += other.IntervalInconclusive
	s.Panics += other.Panics
	s.Quarantined += other.Quarantined
	s.SentinelChecks += other.SentinelChecks
	s.SentinelDisagreements += other.SentinelDisagreements
	s.BreakerTrips += other.BreakerTrips
	s.BreakerRecoveries += other.BreakerRecoveries
	s.EdgeIndexHits += other.EdgeIndexHits
	s.EdgeIndexSkippedEdges += other.EdgeIndexSkippedEdges
	s.DirtyClearPixelsSaved += other.DirtyClearPixelsSaved
	s.HWTime += other.HWTime
	s.SWTime += other.SWTime
	s.CollectTime += other.CollectTime
	s.PipelineBatches += other.PipelineBatches
	s.PipelineFilterNS += other.PipelineFilterNS
	s.PipelineRefineNS += other.PipelineRefineNS
	if other.PipelineQueueDepth > s.PipelineQueueDepth {
		s.PipelineQueueDepth = other.PipelineQueueDepth
	}
	s.StreamRowsEmitted += other.StreamRowsEmitted
}

// Tester runs refinement tests for one worker. It owns a rendering context
// (reused across pair tests, as the paper reuses one small window) and is
// therefore not safe for concurrent use; create one Tester per goroutine.
type Tester struct {
	cfg   Config
	ctx   *raster.Context
	Stats Stats

	// Scratch buffers for the per-pair candidate edge sets, reused across
	// tests to keep the hot path allocation-free.
	redBuf, blueBuf []geom.Segment
	// sweeper reuses the plane sweep's working storage across pair tests.
	sweeper sweep.Sweeper
	// distScratch reuses the software distance test's frontier buffers.
	distScratch dist.Scratch
	// sentinelSeq numbers this tester's hardware-filter negatives for the
	// deterministic sentinel sample (see sentinelPick).
	sentinelSeq uint64
}

// PairContext carries optional shared, read-only derived data for a pair
// test: pre-built edge indexes for the first (PIndex) and second (QIndex)
// polygon. Joins and selections that test one object against many mates
// build an object's index once (see query.Layer.EdgeIndex) and pass it
// here, turning each test's O(n+m) candidate-edge scan into an
// output-sensitive index probe. A zero PairContext reproduces the plain
// linear-scan behaviour; an index whose polygon does not match the tested
// polygon is ignored. The indexes are immutable, so one PairContext may
// be shared by concurrent workers.
//
// Breaker, when non-nil, is the layer pair's shared circuit breaker: the
// tester consults it before using the hardware filter and reports
// sentinel disagreements to it. Its state is atomic, so the same Breaker
// travels in the PairContexts of every worker refining the pair.
type PairContext struct {
	PIndex, QIndex *edgeindex.Index
	Breaker        *Breaker

	// PSig and QSig are the objects' precomputed conservative raster
	// signatures (typically loaded from a store snapshot). When both are
	// present and match the tested polygons' MBRs, a disjointness proof
	// between them resolves the pair negative before any rendering; an
	// inconclusive signature test changes nothing. Signatures are
	// immutable and shared like the indexes.
	PSig, QSig *raster.Signature

	// PIv and QIv are the objects' interval approximations on one shared
	// interval.Grid (the caller guarantees both sides use the same grid —
	// see query.Layer's column plumbing). When both are non-empty the
	// three-valued verdict runs before any other geometry work: TrueHit
	// reports the pair intersecting outright, Reject resolves it
	// negative, Inconclusive falls through to the v1 signature path.
	// Immutable and shared like the other fields. Intersection only;
	// distance tests ignore them.
	PIv, QIv interval.Spans
}

// NewTester builds a Tester from cfg, applying defaults for zero fields.
func NewTester(cfg Config) *Tester {
	if cfg.Resolution <= 0 {
		cfg.Resolution = DefaultResolution
	}
	t := &Tester{cfg: cfg}
	if !cfg.DisableHardware {
		t.ctx = raster.NewContext(cfg.Resolution, cfg.Resolution)
		if cfg.Faults != nil {
			t.ctx.Hook = cfg.Faults.Hook()
		}
		if cfg.LineWidth > 0 {
			if err := t.ctx.SetLineWidth(cfg.LineWidth); err != nil {
				// Cap at the hardware limit rather than failing: the caller
				// asked for a wider filter than the hardware supports.
				_ = t.ctx.SetLineWidth(raster.MaxLineWidth)
			}
		}
	}
	return t
}

// Config returns the tester's effective configuration.
func (t *Tester) Config() Config { return t.cfg }

// Context exposes the rendering context (nil when hardware is disabled),
// for instrumentation.
func (t *Tester) Context() *raster.Context { return t.ctx }

// ResetStats zeroes the counters.
func (t *Tester) ResetStats() {
	t.Stats = Stats{}
	if t.ctx != nil {
		t.ctx.ResetCounters()
	}
}

// Intersects is Algorithm 3.1: it reports whether the closed regions of p
// and q share at least one point, exactly.
func (t *Tester) Intersects(p, q *geom.Polygon) bool {
	return t.IntersectsCtx(p, q, PairContext{})
}

// Verdict is a filter stage's outcome for one candidate pair: resolved
// negative (Miss), resolved positive (Hit), or left for the refinement
// stage (Undecided). The pipeline drivers route batches by it; the plain
// per-pair entry points compose Filter and Refine back into one call.
type Verdict int8

const (
	// VerdictMiss resolves the pair negative — no refinement needed.
	VerdictMiss Verdict = iota
	// VerdictHit resolves the pair positive — no refinement needed.
	VerdictHit
	// VerdictUndecided passes the pair to the refinement stage.
	VerdictUndecided
)

// IntersectsCtx is Intersects with shared per-object derived data: edge
// indexes in pc replace the linear candidate-edge scans on both the
// hardware and the direct-software path. The verdict is identical for any
// pc — the indexes return exactly the edge sets the scan would.
func (t *Tester) IntersectsCtx(p, q *geom.Polygon, pc PairContext) bool {
	switch t.FilterIntersects(p, q, pc) {
	case VerdictHit:
		return true
	case VerdictMiss:
		return false
	}
	return t.RefineIntersects(p, q, pc)
}

// FilterIntersects runs the cheap, render-free front of Algorithm 3.1 —
// MBR pre-test, point-in-polygon containment, persisted-signature
// disjointness — and reports whether the pair is resolved or must go to
// RefineIntersects. It is the pipeline's filter stage: dense, branch-light
// work that touches no rendering context, so filter workers stay hot while
// refine workers own the expensive edge tests. Exactly one Refine call per
// Undecided verdict keeps the Stats resolution partition (Tests == sum of
// the resolution counters) intact even when filter and refine run on
// different testers and the stats are summed afterwards.
func (t *Tester) FilterIntersects(p, q *geom.Polygon, pc PairContext) Verdict {
	// The fault hook runs before any counter moves, so an injected panic
	// leaves the Stats partition (Tests == sum of resolution paths) intact.
	if t.cfg.Faults != nil {
		t.cfg.Faults.Apply(faultinject.SiteIntersects)
	}
	t.Stats.Tests++
	if !p.Bounds().Intersects(q.Bounds()) {
		t.Stats.MBRRejects++
		return VerdictMiss
	}

	// Interval-approximation verdict (v2 filter): sound in both
	// directions — a full/full cell overlap proves intersection, span
	// disjointness proves the regions (interiors included) are disjoint —
	// so it runs before the containment test; only inconclusive pairs pay
	// for the rest of the filter chain.
	if len(pc.PIv) > 0 && len(pc.QIv) > 0 {
		t.Stats.IntervalChecks++
		switch interval.Compare(pc.PIv, pc.QIv) {
		case interval.TrueHit:
			t.Stats.IntervalTrueHits++
			return VerdictHit
		case interval.Reject:
			t.Stats.IntervalRejects++
			return VerdictMiss
		}
		t.Stats.IntervalInconclusive++
	}

	// Step 1: software point-in-polygon test, both directions. Linear and
	// cache friendly; also the only step that can see containment, which
	// the edge rendering cannot.
	if sweep.ContainmentPossible(p, q) {
		t.Stats.PIPHits++
		return VerdictHit
	}

	// Persisted-signature filter: with containment excluded, the predicate
	// reduces to a boundary intersection, which disjoint signatures refute
	// outright — no rendering, no software test.
	if t.sigReject(p, q, 0, pc) {
		return VerdictMiss
	}
	return VerdictUndecided
}

// RefineIntersects decides a pair FilterIntersects left Undecided: the
// adaptive software/hardware dispatch, the hardware overlap filter, and
// the exact software cross test. Callers must not invoke it on pairs the
// filter resolved — the stats partition counts each test exactly once.
func (t *Tester) RefineIntersects(p, q *geom.Polygon, pc PairContext) bool {
	// Adaptive threshold (§4.3): for simple pairs the fixed hardware
	// overhead exceeds the software sweep, so skip straight to software.
	// The software test runs on the same restricted (and possibly
	// index-collected) edge sets as the hardware path.
	if t.ctx == nil || p.NumVerts()+q.NumVerts() <= t.cfg.SWThreshold {
		t.Stats.SWDirect++
		return t.softwareIntersects(p, q, pc)
	}

	// Circuit-breaker gate: an open breaker means a sentinel disagreement
	// recently proved the hardware filter untrustworthy for this layer
	// pair, so route the pair through the exact software path.
	useHW, probe := pc.Breaker.Allow()
	if !useHW {
		t.Stats.BreakerOpenSkips++
		return t.softwareIntersects(p, q, pc)
	}

	// The hardware and software steps both operate on the same restricted
	// edge sets: only edges touching the intersection of the MBRs can
	// participate in a boundary intersection.
	red, blue := t.collectPair(p, q, p.Bounds().Intersection(q.Bounds()), pc)
	if len(red) == 0 || len(blue) == 0 {
		if probe {
			pc.Breaker.ProbeAbort()
		}
		t.Stats.HWRejects++
		return false
	}

	// Step 2: hardware segment intersection test (steps 2.1–2.8),
	// projecting the intersection of the two MBRs onto the window (§3.2).
	start := time.Now()
	t.ctx.SetViewport(p.Bounds().Intersection(q.Bounds()))
	overlap := t.hwOverlap(red, blue, 0)
	t.Stats.HWTime += time.Since(start)
	if overlap {
		// Inconclusive: step 3, software segment intersection test. The
		// filter did not assert anything unverifiable, so a probe counts
		// as a successful hardware round trip.
		t.Stats.HWPassed++
		if probe && pc.Breaker.ProbeSuccess() {
			t.Stats.BreakerRecoveries++
		}
		start = time.Now()
		ok := t.crossIntersects(red, blue)
		t.Stats.SWTime += time.Since(start)
		return ok
	}
	// A negative is the one verdict taken on trust. The sentinel verifier
	// re-checks a deterministic sample (and every probe) against the exact
	// test; a disagreement corrects the verdict and trips the breaker.
	if t.sentinelPick(probe) {
		t.Stats.SentinelChecks++
		start = time.Now()
		ok := t.crossIntersects(red, blue)
		t.Stats.SWTime += time.Since(start)
		if ok {
			t.Stats.SentinelDisagreements++
			t.Stats.HWPassed++
			if pc.Breaker.Trip() {
				t.Stats.BreakerTrips++
			}
			return true
		}
	}
	if probe && pc.Breaker.ProbeSuccess() {
		t.Stats.BreakerRecoveries++
	}
	t.Stats.HWRejects++
	return false
}

// softwareIntersects decides an intersection test entirely in software on
// the same (possibly index-collected) restricted edge sets the hardware
// path would use. Shared by the SWThreshold fast path and the breaker's
// degraded mode.
func (t *Tester) softwareIntersects(p, q *geom.Polygon, pc PairContext) bool {
	if t.cfg.Software.NoRestrictSearch {
		// Ablation path: unrestricted candidate sets, no index use.
		start := time.Now()
		ok := t.sweeper.BoundariesIntersect(p, q, t.cfg.Software)
		t.Stats.SWTime += time.Since(start)
		return ok
	}
	red, blue := t.collectPair(p, q, p.Bounds().Intersection(q.Bounds()), pc)
	if len(red) == 0 || len(blue) == 0 {
		return false
	}
	start := time.Now()
	ok := t.crossIntersects(red, blue)
	t.Stats.SWTime += time.Since(start)
	return ok
}

// sentinelPick decides whether a hardware-filter negative joins the
// sentinel sample. Deterministic: a per-tester counter picks every
// SentinelEvery-th negative; half-open probes are always verified. The
// counter starts at 1, so with the default cadence the first 63 negatives
// ride unsampled — sampling bounds detection latency, not per-pair cost.
func (t *Tester) sentinelPick(probe bool) bool {
	t.sentinelSeq++
	if probe {
		return true
	}
	every := t.cfg.SentinelEvery
	if every < 0 {
		return false
	}
	if every == 0 {
		every = DefaultSentinelEvery
	}
	return t.sentinelSeq%uint64(every) == 0
}

// sigReject consults the pair's persisted raster signatures and reports
// whether they prove the boundaries cannot come within d of each other
// (d = 0: cannot intersect). Callers must have excluded containment — a
// contained pair has intersecting regions with arbitrarily distant
// boundaries, which signatures cannot see. Signatures whose bounds do not
// match the tested polygons (a mismatched PairContext) are ignored, like
// a mismatched edge index.
func (t *Tester) sigReject(p, q *geom.Polygon, d float64, pc PairContext) bool {
	if !pc.PSig.Valid() || !pc.QSig.Valid() {
		return false
	}
	if pc.PSig.Bounds != p.Bounds() || pc.QSig.Bounds != q.Bounds() {
		return false
	}
	t.Stats.SigChecks++
	if raster.SignaturesMayIntersect(pc.PSig, pc.QSig, d) {
		return false
	}
	t.Stats.SigRejects++
	return true
}

// collectPair gathers the candidate edges of p and q touching r into the
// tester's scratch buffers, going through each side's edge index when the
// PairContext carries one (blue is skipped when red comes back empty,
// matching sweep.CandidateEdgesInto). The edge sets — content and order —
// are identical with and without indexes; only the work to find them
// differs, which the EdgeIndex stats record.
func (t *Tester) collectPair(p, q *geom.Polygon, r geom.Rect, pc PairContext) (red, blue []geom.Segment) {
	start := time.Now()
	red, skipped, indexed := collectSide(t.redBuf, p, pc.PIndex, r)
	t.redBuf = red[:0]
	if len(red) > 0 {
		var skq int
		var ixq bool
		blue, skq, ixq = collectSide(t.blueBuf, q, pc.QIndex, r)
		t.blueBuf = blue[:0]
		skipped += skq
		indexed = indexed || ixq
	}
	t.Stats.CollectTime += time.Since(start)
	if indexed {
		t.Stats.EdgeIndexHits++
	}
	t.Stats.EdgeIndexSkippedEdges += int64(skipped)
	return red, blue
}

// collectSide collects one polygon's candidate edges, via its index when
// one is supplied (and actually indexes this polygon), else linearly.
func collectSide(buf []geom.Segment, p *geom.Polygon, ix *edgeindex.Index, r geom.Rect) (segs []geom.Segment, skipped int, indexed bool) {
	if ix != nil && ix.Indexed() && ix.Polygon() == p {
		segs, examined := ix.AppendEdgesInRect(buf[:0], r)
		return segs, p.NumEdges() - examined, true
	}
	return sweep.AppendEdgesInRange(buf[:0], p, r, 0, p.NumEdges()), 0, false
}

// WithinDistance reports whether the regions of p and q are within
// distance d, exactly, using the hardware widened-edge filter where
// profitable.
func (t *Tester) WithinDistance(p, q *geom.Polygon, d float64) bool {
	return t.WithinDistanceCtx(p, q, d, PairContext{})
}

// WithinDistanceCtx is WithinDistance with shared per-object derived
// data; see IntersectsCtx.
func (t *Tester) WithinDistanceCtx(p, q *geom.Polygon, d float64, pc PairContext) bool {
	switch t.FilterWithin(p, q, d, pc) {
	case VerdictHit:
		return true
	case VerdictMiss:
		return false
	}
	return t.RefineWithin(p, q, d, pc)
}

// FilterWithin is the within-distance filter stage: MBR distance pre-test,
// containment, and d-expanded signature disjointness, none of which touch
// the rendering context. See FilterIntersects for the stats contract.
func (t *Tester) FilterWithin(p, q *geom.Polygon, d float64, pc PairContext) Verdict {
	if t.cfg.Faults != nil {
		t.cfg.Faults.Apply(faultinject.SiteWithinDistance)
	}
	t.Stats.Tests++
	if p.Bounds().Dist(q.Bounds()) > d {
		t.Stats.MBRRejects++
		return VerdictMiss
	}

	// Containment makes the region distance zero but leaves boundaries
	// arbitrarily far apart, so it must be handled before edge rendering,
	// exactly as in Algorithm 3.1.
	if sweep.ContainmentPossible(p, q) {
		t.Stats.PIPHits++
		return VerdictHit
	}

	// Persisted-signature filter: with containment excluded, within-d
	// reduces to the boundaries coming within d, which the signatures
	// refute when their d-expanded cells are disjoint.
	if t.sigReject(p, q, d, pc) {
		return VerdictMiss
	}
	return VerdictUndecided
}

// RefineWithin decides a pair FilterWithin left Undecided: threshold
// dispatch, the widened-edge hardware filter (with its line-width
// fallback), and the exact software distance test.
func (t *Tester) RefineWithin(p, q *geom.Polygon, d float64, pc PairContext) bool {
	if t.ctx == nil || p.NumVerts()+q.NumVerts() <= t.cfg.SWThreshold {
		t.Stats.SWDirect++
		return t.softwareWithin(p, q, d)
	}

	// Circuit-breaker gate; see IntersectsCtx.
	useHW, probe := pc.Breaker.Allow()
	if !useHW {
		t.Stats.BreakerOpenSkips++
		return t.softwareWithin(p, q, d)
	}

	// Viewport: the MBR of the smaller object expanded by d (§3.2 projects
	// "the expanded bounding rectangle of the smaller object"). If the
	// pair is within d, the midpoint of the closest pair lies inside this
	// region and both widened boundaries cover its pixel. The projection
	// must be uniform so that the data-space distance d maps to one line
	// width on both axes; the width is padded by one ulp-scale epsilon so
	// pairs at exactly distance d stay inside the conservative coverage.
	small := p.Bounds()
	if q.Bounds().Area() < small.Area() {
		small = q.Bounds()
	}
	region := small.Expand(d)
	scale := t.ctx.SetViewportUniform(region)
	widthPx := d * scale
	widthPx += 1e-9 * (1 + widthPx)
	if widthPx > raster.MaxLineWidth {
		// Hardware line-width limit (paper §4.4): fall back to software.
		// No hardware verdict was produced, so a claimed probe is handed
		// back for the next pair.
		if probe {
			pc.Breaker.ProbeAbort()
		}
		t.Stats.HWFallbacks++
		return t.softwareWithin(p, q, d)
	}

	// Only edges whose widened capsule can reach the viewport matter:
	// those within d/2 of it, i.e. touching the region expanded by a
	// further d/2. The pre-clip uses the same cheap bounds test as the
	// software path — through the edge indexes when the PairContext
	// carries them — so a monster polygon paired with a small object
	// submits only its nearby reach (§3.2: the projection "avoids
	// rendering unnecessary edges").
	red, blue := t.collectPair(p, q, small.Expand(d), pc)
	if len(red) == 0 || len(blue) == 0 {
		// One boundary has no presence near the smaller object at all:
		// with containment excluded the pair cannot be within d.
		if probe {
			pc.Breaker.ProbeAbort()
		}
		t.Stats.HWRejects++
		return false
	}

	start := time.Now()
	overlap := t.hwOverlap(red, blue, widthPx)
	t.Stats.HWTime += time.Since(start)
	if overlap {
		t.Stats.HWPassed++
		if probe && pc.Breaker.ProbeSuccess() {
			t.Stats.BreakerRecoveries++
		}
		start = time.Now()
		ok := t.softwareWithin(p, q, d)
		t.Stats.SWTime += time.Since(start)
		return ok
	}
	// Sentinel verification of the trusted negative, with the exact
	// distance test as the oracle; see IntersectsCtx.
	if t.sentinelPick(probe) {
		t.Stats.SentinelChecks++
		start = time.Now()
		ok := t.softwareWithin(p, q, d)
		t.Stats.SWTime += time.Since(start)
		if ok {
			t.Stats.SentinelDisagreements++
			t.Stats.HWPassed++
			if pc.Breaker.Trip() {
				t.Stats.BreakerTrips++
			}
			return true
		}
	}
	if probe && pc.Breaker.ProbeSuccess() {
		t.Stats.BreakerRecoveries++
	}
	t.Stats.HWRejects++
	return false
}

// softwareWithin runs the software distance test knowing that containment
// has been excluded. The chain-distance computation runs first: its
// frontier culling assumes disjoint boundaries, but culling can only
// *over*-report the distance, so a ≤ d verdict is always sound and exits
// early — the common case for the mostly-positive pairs the filters leave
// behind. Only a > d report needs the boundary-crossing check to confirm
// that the disjointness assumption held.
func (t *Tester) softwareWithin(p, q *geom.Polygon, d float64) bool {
	if dist.BoundaryWithinScratch(p, q, d, dist.Options{}, &t.distScratch) {
		return true
	}
	return p.Bounds().Intersects(q.Bounds()) && t.sweeper.BoundariesIntersect(p, q, t.cfg.Software)
}

// hwOverlap runs the hardware overlap test (Algorithm 3.1 steps 2.1–2.8)
// on the given edge sets under the caller-established viewport and reports
// whether any pixel was colored by both sets. widthPx 0 uses the context's
// anti-aliased default width.
//
// A wrong-answer fault armed at SiteHWFilter flips the verdict here. The
// reject→inconclusive direction is harmless (inconclusive pairs go to the
// exact software test); the overlap→reject direction silently loses
// results, which is precisely the trust the engine places in conservative
// rasterization — the fault-injection tests document that boundary.
func (t *Tester) hwOverlap(red, blue []geom.Segment, widthPx float64) bool {
	saved0 := t.ctx.DirtyClearPixelsSaved
	overlap := t.hwOverlapRaw(red, blue, widthPx)
	t.Stats.DirtyClearPixelsSaved += t.ctx.DirtyClearPixelsSaved - saved0
	if t.cfg.Faults != nil && t.cfg.Faults.Wrong(faultinject.SiteHWFilter) {
		overlap = !overlap
	}
	return overlap
}

func (t *Tester) hwOverlapRaw(red, blue []geom.Segment, widthPx float64) bool {
	ctx := t.ctx
	ctx.Clear()
	if t.cfg.UseAccum {
		// Accumulation protocol: two half-intensity layers sum to full
		// intensity exactly on overlap pixels.
		ctx.SetColor(0.5)
		drawSet(ctx, red, widthPx)
		ctx.AccumLoad(1)
		ctx.Clear()
		drawSet(ctx, blue, widthPx)
		ctx.AccumAdd(1)
		_, maxV := minMaxAccum(ctx)
		return maxV >= 1
	}
	// Occlusion-query protocol: render one layer, then test the other
	// layer's fragments against the buffer, stopping at the first covered
	// fragment. Semantically identical to the accumulation search; the
	// early exit mirrors hardware occlusion tests. Rendering the smaller
	// set and testing the larger one bounds the stored pass by the cheap
	// side and lets overlapping pairs exit during the expensive side.
	if len(red) > len(blue) {
		red, blue = blue, red
	}
	ctx.SetColor(1)
	drawSet(ctx, red, widthPx)
	for _, s := range blue {
		if ctx.SegmentTouches(s, widthPx) {
			return true
		}
	}
	return false
}

// drawSet renders segments at the given width, 0 meaning the context
// default.
func drawSet(ctx *raster.Context, segs []geom.Segment, widthPx float64) {
	if widthPx > 0 {
		for _, s := range segs {
			ctx.DrawSegmentWidth(s, widthPx)
		}
	} else {
		ctx.DrawEdges(segs)
	}
}

// minMaxAccum is the Minmax hardware query over the accumulation buffer:
// cost proportional to the window area, matching the fixed per-test
// overhead the paper attributes to the buffer search.
func minMaxAccum(ctx *raster.Context) (minV, maxV float32) {
	buf := ctx.Accum()
	if len(buf.Pix) == 0 {
		return 0, 0
	}
	minV, maxV = buf.Pix[0], buf.Pix[0]
	for _, v := range buf.Pix[1:] {
		if v < minV {
			minV = v
		}
		if v > maxV {
			maxV = v
		}
	}
	return minV, maxV
}

// crossIntersects dispatches the software segment test on pre-restricted
// edge sets. With the default algorithm the dispatch is adaptive: small
// work products go to the all-pairs scan (the common case once the edge
// index has shrunk the sets), large ones to the tester's reusable plane
// sweep. All algorithms are exact, so the choice never changes a verdict.
func (t *Tester) crossIntersects(red, blue []geom.Segment) bool {
	switch t.cfg.Software.Algorithm {
	case sweep.ForwardScan:
		return sweep.CrossIntersectsForwardScan(red, blue)
	case sweep.BruteForce:
		return sweep.CrossIntersectsBrute(red, blue)
	default:
		cutoff := t.cfg.CrossCutoff
		if cutoff == 0 {
			cutoff = DefaultCrossCutoff
		}
		if cutoff > 0 && len(red)*len(blue) <= cutoff {
			return sweep.CrossIntersectsBrute(red, blue)
		}
		return t.sweeper.CrossIntersects(red, blue)
	}
}
