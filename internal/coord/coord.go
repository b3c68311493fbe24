// Package coord is the scatter-gather coordinator of a sharded spatiald
// deployment. It speaks the existing line-oriented wire protocol to one
// spatiald process per spatial tile (see internal/partition): selections
// are routed to the tiles whose ownership regions overlap the query MBR,
// joins fan out to every tile with the tile's ownership region on the
// wire, and the per-shard streams are merged — ids deduplicated for
// selections (border objects respond from every overlapping tile), pairs
// concatenated for joins (the shard-side reference-point rule guarantees
// each pair arrives exactly once), and per-shard query.Stats folded with
// Stats.Merge.
//
// # Failure semantics
//
// A shard that cannot be reached, times out, or answers with an error
// does not fail the query: the coordinator merges what the live shards
// returned and wraps the miss in a *query.PartialError (Done = shards
// that answered, Total = shards asked), which the serving layer already
// renders as a "partial:" status. Only a query with zero answering
// shards is a hard error. Each shard has a consecutive-failure breaker:
// after Config.BreakerThreshold failures the shard is skipped without
// dialing for Config.BreakerCooldown, so one dead shard costs its tiles'
// results but never a dial timeout per query. A shard that answers
// "error: server overloaded ... retry after <d>" contributes a typed
// *ShardBusyError carrying the largest hint, which the coordinator's own
// serving layer propagates to clients.
package coord

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
	"repro/internal/geom"
	"repro/internal/partition"
	"repro/internal/query"
)

// Config configures a Coordinator.
type Config struct {
	// Manifest is the partitioned deployment being coordinated.
	Manifest *partition.Manifest
	// Addrs are the per-tile shard addresses, in tile-ID order — the
	// single-replica shorthand. Length must equal Manifest.NumTiles().
	// Ignored when ReplicaAddrs is set.
	Addrs []string
	// ReplicaAddrs is the full routing table of a replicated deployment:
	// element [t][r] is the address serving replica r of tile t, primary
	// first (see Manifest.ReplicaAddrs). Every tile needs at least one
	// replica; replicas of one tile must be distinct addresses.
	ReplicaAddrs [][]string
	// DialTimeout bounds each shard dial (default 2s).
	DialTimeout time.Duration
	// ReadTimeout bounds each shard response read when the query context
	// carries no deadline (default 30s) — a dead shard must become a
	// typed partial, never a hang.
	ReadTimeout time.Duration
	// BreakerThreshold is the consecutive-failure count that opens a
	// replica's breaker (default 3); BreakerCooldown is how long it stays
	// open before a passive half-open trial (default 5s). With a prober
	// running (ProbeInterval > 0) the cooldown is ignored: only a probe
	// success half-opens the breaker.
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// RetryBackoff is the base delay between failover attempts on a
	// tile's replicas, jittered to 50–150% (default 25ms). The backoff
	// never sleeps past the sub-query's deadline.
	RetryBackoff time.Duration
	// HedgeDelay, when > 0, arms hedged sub-queries: if a tile's first
	// replica has not answered within the delay, the sub-query is
	// launched on the next live replica too and the first complete
	// stream wins (the loser is cancelled).
	HedgeDelay time.Duration
	// ProbeInterval, when > 0, runs a background health prober: every
	// interval each replica gets a lightweight probe, failures open its
	// breaker before query traffic has to discover the corpse, and a
	// probe success is what half-opens an open breaker (active recovery
	// instead of the passive cooldown).
	ProbeInterval time.Duration
	// RecoveryWait bounds how long a tile sub-query waits for the prober
	// to readmit a replica before conceding a partial when no replica is
	// routable — a kill's stale failures can trip a just-restarted
	// replica's breaker, so "every breaker open" often means "readmission
	// in flight", not "tile lost". Defaults to two probe cycles; without
	// a prober there is no readmission to wait for and the wait is
	// skipped.
	RecoveryWait time.Duration
	// Faults optionally injects dial/read/shard-down/replica-down/probe
	// faults at the coord.* sites.
	Faults *faultinject.Injector
}

// mergeReserveDiv sets the share of a query's deadline (1/10) withheld
// from shards and kept for the merge phase.
const mergeReserveDiv = 10

func (c Config) recoveryWait() time.Duration {
	if c.RecoveryWait > 0 {
		return c.RecoveryWait
	}
	if c.ProbeInterval > 0 {
		return 2*c.ProbeInterval + 5*time.Millisecond
	}
	return 0
}

func (c Config) dialTimeout() time.Duration {
	if c.DialTimeout > 0 {
		return c.DialTimeout
	}
	return 2 * time.Second
}

func (c Config) readTimeout() time.Duration {
	if c.ReadTimeout > 0 {
		return c.ReadTimeout
	}
	return 30 * time.Second
}

func (c Config) breakerThreshold() int {
	if c.BreakerThreshold > 0 {
		return c.BreakerThreshold
	}
	return 3
}

func (c Config) breakerCooldown() time.Duration {
	if c.BreakerCooldown > 0 {
		return c.BreakerCooldown
	}
	return 5 * time.Second
}

func (c Config) retryBackoff() time.Duration {
	if c.RetryBackoff > 0 {
		return c.RetryBackoff
	}
	return 25 * time.Millisecond
}

// ShardError reports one shard's failure, typed so callers can tell
// which tile's results are missing from a partial answer.
type ShardError struct {
	Tile int
	Addr string
	Err  error
}

func (e *ShardError) Error() string {
	return fmt.Sprintf("coord: shard %d (%s): %v", e.Tile, e.Addr, e.Err)
}

func (e *ShardError) Unwrap() error { return e.Err }

// ErrBreakerOpen marks a shard skipped because its breaker is open.
var ErrBreakerOpen = errors.New("breaker open")

// ShardBusyError reports a shard that refused a query under admission
// control. RetryAfter is the largest hint any busy shard returned; the
// error text keeps the "retry after <d>" phrasing clients already parse.
type ShardBusyError struct {
	Tile       int
	RetryAfter time.Duration
}

func (e *ShardBusyError) Error() string {
	return fmt.Sprintf("coord: shard %d overloaded; retry after %v", e.Tile, e.RetryAfter)
}

// MarginError refuses a within-distance join whose distance exceeds the
// deployment's replication margin — beyond it the reference-point rule
// can no longer guarantee the owning tile holds both objects, so the
// sharded answer could silently miss pairs.
type MarginError struct {
	D, Margin float64
}

func (e *MarginError) Error() string {
	return fmt.Sprintf("coord: within-distance %g exceeds the deployment's replication margin %g (repartition with a larger margin)", e.D, e.Margin)
}

// retryAfterRe extracts the Retry-After hint from a shard's overload
// error line (see server.OverloadError: "...; retry after 150ms").
var retryAfterRe = regexp.MustCompile(`retry after ([0-9][^ )]*)`)

// Breaker states reported through Health.State and the
// spatiald_shard_breaker_state metric.
const (
	BreakerClosed   = "closed"    // replica in rotation
	BreakerOpen     = "open"      // replica skipped without dialing
	BreakerHalfOpen = "half-open" // trial traffic allowed; next result decides
)

// Health is one replica's live state for the shards verb and the
// /metrics surface.
type Health struct {
	Tile    int    `json:"tile"`
	Replica int    `json:"replica"`
	Role    string `json:"role"` // "primary" or "replica"
	Addr    string `json:"addr"`
	// State is the replica's breaker state (BreakerClosed/Open/HalfOpen);
	// Open mirrors State == BreakerOpen for older consumers.
	State string `json:"state"`
	Open  bool   `json:"open"`
	// Fails counts lifetime failures; ConsecFails is the current
	// consecutive-failure run the breaker trips on.
	Fails       int64  `json:"fails"`
	ConsecFails int    `json:"consec_fails"`
	Queries     int64  `json:"queries"`
	LastErr     string `json:"last_err,omitempty"`
	IdleConn    int    `json:"idle_conns"`
}

// Totals counts coordinator-level failover events since start, for the
// /metrics surface.
type Totals struct {
	// Retries counts sub-queries re-dispatched to another replica after
	// a replica failed.
	Retries int64 `json:"retries"`
	// Hedges counts hedged sub-queries launched; HedgesWon counts the
	// hedges that finished before the original attempt.
	Hedges    int64 `json:"hedges"`
	HedgesWon int64 `json:"hedges_won"`
	// Probes and ProbeFails count background health probes.
	Probes     int64 `json:"probes"`
	ProbeFails int64 `json:"probe_failures"`
}

// Coordinator fans queries out over the shard fleet. Safe for concurrent
// use by many sessions; per-replica connections are pooled.
type Coordinator struct {
	cfg   Config
	tiles [][]*replica // [tile][replica]

	retries    atomic.Int64
	hedges     atomic.Int64
	hedgesWon  atomic.Int64
	probes     atomic.Int64
	probeFails atomic.Int64

	stopProbe chan struct{}
	probeWG   sync.WaitGroup
	closeOnce sync.Once
}

// New validates the manifest/address pairing and returns a Coordinator.
// Shards are dialed lazily on first use; with ProbeInterval set the
// background health prober starts immediately (stop it with Close).
func New(cfg Config) (*Coordinator, error) {
	if cfg.Manifest == nil {
		return nil, errors.New("coord: nil manifest")
	}
	n := cfg.Manifest.NumTiles()
	table := cfg.ReplicaAddrs
	if table == nil {
		if len(cfg.Addrs) != n {
			return nil, fmt.Errorf("coord: %d shard addresses for %d tiles", len(cfg.Addrs), n)
		}
		table = make([][]string, n)
		for i, addr := range cfg.Addrs {
			table[i] = []string{addr}
		}
	} else if len(table) != n {
		return nil, fmt.Errorf("coord: replica table covers %d tiles, manifest has %d", len(table), n)
	}
	c := &Coordinator{cfg: cfg, stopProbe: make(chan struct{})}
	for t, addrs := range table {
		if len(addrs) == 0 {
			return nil, fmt.Errorf("coord: tile %d has no replicas", t)
		}
		seen := map[string]bool{}
		reps := make([]*replica, len(addrs))
		for r, addr := range addrs {
			if addr == "" {
				return nil, fmt.Errorf("coord: tile %d replica %d has no shard address", t, r)
			}
			if seen[addr] {
				return nil, fmt.Errorf("coord: tile %d lists address %s twice; replicas must be distinct shards", t, addr)
			}
			seen[addr] = true
			reps[r] = &replica{tile: t, idx: r, addr: addr, cfg: &c.cfg}
		}
		c.tiles = append(c.tiles, reps)
	}
	if cfg.ProbeInterval > 0 {
		c.probeWG.Add(1)
		go c.probeLoop()
	}
	return c, nil
}

// Manifest returns the deployment manifest the coordinator routes with.
func (c *Coordinator) Manifest() *partition.Manifest { return c.cfg.Manifest }

// Health snapshots every replica's breaker state, tile-major with the
// primary first — so in a replica-less deployment Health()[t] is tile
// t, exactly as before.
func (c *Coordinator) Health() []Health {
	var out []Health
	for _, reps := range c.tiles {
		for _, r := range reps {
			out = append(out, r.health())
		}
	}
	return out
}

// Totals snapshots the failover counters.
func (c *Coordinator) Totals() Totals {
	return Totals{
		Retries:    c.retries.Load(),
		Hedges:     c.hedges.Load(),
		HedgesWon:  c.hedgesWon.Load(),
		Probes:     c.probes.Load(),
		ProbeFails: c.probeFails.Load(),
	}
}

// Close stops the health prober and drops all pooled shard connections.
func (c *Coordinator) Close() {
	c.closeOnce.Do(func() { close(c.stopProbe) })
	c.probeWG.Wait()
	for _, reps := range c.tiles {
		for _, r := range reps {
			r.closeIdle()
		}
	}
}

// Result is one fanned-out query's merged answer. Buffered results hold
// rows only from shards whose status line arrived ("ok" or "partial"):
// a shard that failed mid-stream contributes nothing, so on a partial
// answer the reported-missing tiles can be re-queried and unioned in
// without double-counting. (Streamed RowSink delivery is weaker; see
// RowSink.)
type Result struct {
	// IDs are the deduplicated stable object ids (selections). Empty when
	// the query streamed through a RowSink.
	IDs []uint64
	// Pairs are the stable-id result pairs (joins), already unique by the
	// reference-point rule. Empty when the query streamed through a
	// RowSink.
	Pairs [][2]uint64
	// Stats is the fold of every answering shard's stats record; Results
	// is overwritten with the merged count.
	Stats query.Stats
	// ShardsAsked and ShardsOK count the fan-out and the answers; a
	// ShardsOK < ShardsAsked result comes with a *query.PartialError.
	ShardsAsked, ShardsOK int
	// ShardMS is each answering shard's wall-clock, keyed by tile, for
	// the merge-overhead accounting in spatialbench.
	ShardMS map[int]float64
	// MaxBuffered is the high-water mark of merged result rows held in
	// coordinator memory during the query: the whole result set when
	// buffering, zero when a RowSink streamed rows through as they
	// arrived.
	MaxBuffered int
}

// RowSink streams merged result rows out of a fan-out as the shard
// streams parse: ids already deduplicated (border objects answer from
// every overlapping tile), pairs already unique by the shard-side
// reference-point rule. Calls are serialized under the coordinator's
// merge lock but interleave across shards in arrival order — callers
// needing a sorted answer must use the buffering API. A non-nil return
// stops the fan-out (remaining rows are dropped, shard breakers are NOT
// tripped) and surfaces as the *query.PartialError cause.
//
// Streaming trades away the buffering API's failed-shard isolation:
// rows flow out before a shard's status line arrives, so a shard that
// dies mid-stream has already delivered its earlier rows. A
// *query.PartialError naming missing shards therefore means those
// shards' streams were cut part-way, not that they contributed nothing
// — re-querying just the missing tiles may repeat pairs; retry the
// whole query when exactly-once delivery matters. The buffering API
// commits a shard's rows only after its "ok"/"partial" status, so a
// buffered Result never contains rows from a failed shard.
type RowSink struct {
	ID   func(uint64) error
	Pair func([2]uint64) error
}

func (s RowSink) active() bool { return s.ID != nil || s.Pair != nil }

// errAbortStream marks a shard read loop aborted because the session's
// RowSink failed — the client went away, not the shard.
var errAbortStream = errors.New("coord: result sink failed")

// merger is the fan-out's shared incremental merge state. In streaming
// (RowSink) mode shard reader goroutines push rows in as their streams
// parse and rows flow straight out through the sink; in buffered mode
// each shard's rows stage in its shardAnswer and commit here only after
// the shard's status line proves the stream complete, so a shard that
// fails mid-stream contributes nothing to the Result.
type merger struct {
	mu    sync.Mutex
	sink  RowSink
	idSet map[uint64]bool
	// pairSet dedups streamed pairs. The reference-point rule makes pairs
	// unique across tiles, but failover and hedging can replay one tile's
	// stream (a retried or hedged attempt re-delivers rows the failed or
	// losing attempt already pushed), so streaming mode keys pairs too.
	// Buffered mode commits exactly one winning attempt per tile and
	// needs no pair dedup.
	pairSet map[[2]uint64]bool
	res     *Result
	rows    int
	sinkErr error
}

func (m *merger) id(v uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.sinkErr != nil {
		return errAbortStream
	}
	if m.idSet[v] {
		return nil
	}
	m.idSet[v] = true
	m.rows++
	if m.sink.ID != nil {
		if err := m.sink.ID(v); err != nil {
			m.sinkErr = err
			return errAbortStream
		}
		return nil
	}
	m.res.IDs = append(m.res.IDs, v)
	m.bump()
	return nil
}

func (m *merger) pair(p [2]uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.sinkErr != nil {
		return errAbortStream
	}
	if m.streaming() {
		if m.pairSet[p] {
			return nil
		}
		m.pairSet[p] = true
	}
	m.rows++
	if m.sink.Pair != nil {
		if err := m.sink.Pair(p); err != nil {
			m.sinkErr = err
			return errAbortStream
		}
		return nil
	}
	m.res.Pairs = append(m.res.Pairs, p)
	m.bump()
	return nil
}

// streaming reports whether rows flow out through a sink as they parse
// (versus staging per shard and committing on status).
func (m *merger) streaming() bool { return m.sink.active() }

func (m *merger) bump() {
	if n := len(m.res.IDs) + len(m.res.Pairs); n > m.res.MaxBuffered {
		m.res.MaxBuffered = n
	}
}

// Select routes an intersection selection to the tiles overlapping the
// query polygon's MBR and merges their stable-id streams (buffered,
// sorted ascending).
func (c *Coordinator) Select(ctx context.Context, layer, wkt string, bounds geom.Rect) (Result, error) {
	return c.SelectStream(ctx, layer, wkt, bounds, RowSink{})
}

// SelectStream is Select with each deduplicated id handed to sink the
// moment it merges, instead of buffering the result set; pass a zero
// RowSink to buffer (sorted) into the Result.
func (c *Coordinator) SelectStream(ctx context.Context, layer, wkt string, bounds geom.Rect, sink RowSink) (Result, error) {
	tiles := c.cfg.Manifest.OverlappingTiles(bounds)
	cmd := "shardselect " + layer + " " + wkt
	return c.fanout(ctx, "select", tiles, func(int) string { return cmd }, sink)
}

// Join fans an intersection join out to every tile with its ownership
// region and concatenates the deduplicated pair streams (buffered,
// sorted by pair).
func (c *Coordinator) Join(ctx context.Context, a, b, mode string) (Result, error) {
	return c.JoinStream(ctx, a, b, mode, RowSink{})
}

// JoinStream is Join with each pair handed to sink as it arrives from
// the shard streams; pass a zero RowSink to buffer into the Result.
func (c *Coordinator) JoinStream(ctx context.Context, a, b, mode string, sink RowSink) (Result, error) {
	return c.fanout(ctx, "join", c.allTiles(), func(tile int) string {
		cmd := fmt.Sprintf("shardjoin %s %s %s", a, b, shellFormatRect(c.cfg.Manifest.Region(tile)))
		if mode != "" {
			cmd += " " + mode
		}
		return cmd
	}, sink)
}

// Within fans a within-distance join out shard-wise. Distances beyond
// the deployment's replication margin are refused with a *MarginError.
func (c *Coordinator) Within(ctx context.Context, a, b string, d float64, mode string) (Result, error) {
	return c.WithinStream(ctx, a, b, d, mode, RowSink{})
}

// WithinStream is Within with streaming row delivery, as JoinStream.
func (c *Coordinator) WithinStream(ctx context.Context, a, b string, d float64, mode string, sink RowSink) (Result, error) {
	if d > c.cfg.Manifest.Margin {
		return Result{}, &MarginError{D: d, Margin: c.cfg.Manifest.Margin}
	}
	return c.fanout(ctx, "within", c.allTiles(), func(tile int) string {
		cmd := fmt.Sprintf("shardwithin %s %s %s %s", a, b,
			strconv.FormatFloat(d, 'g', -1, 64), shellFormatRect(c.cfg.Manifest.Region(tile)))
		if mode != "" {
			cmd += " " + mode
		}
		return cmd
	}, sink)
}

func (c *Coordinator) allTiles() []int {
	tiles := make([]int, len(c.tiles))
	for i := range tiles {
		tiles[i] = i
	}
	return tiles
}

// shardAnswer is one shard's response bookkeeping. In streaming mode
// result rows do not pass through it — they flow into the fan-out's
// merger as the stream parses. In buffered mode the rows stage in ids/
// pairs and fanout commits them into the merger only once the shard's
// status line arrives, so a shard that fails mid-stream (read error,
// parse error, trailing "error:" status) contributes no rows.
type shardAnswer struct {
	tile    int
	replica int         // replica index that produced the answer
	ids     []uint64    // staged rows (buffered mode only)
	pairs   [][2]uint64 // staged rows (buffered mode only)
	stats   query.Stats
	wallMS  float64
	partial string // non-empty: shard answered "partial: <reason>"
	err     error
}

// fanout runs cmdFor(tile) on every listed shard concurrently. With a
// RowSink each shard reader pushes parsed rows into the shared merger
// the moment they arrive, so the caller sees first rows while slow
// shards are still refining; without one, each shard's rows stage until
// its status line arrives and only complete ("ok"/"partial") streams
// commit into the Result — a shard that dies mid-stream contributes
// zero rows, so a reported-missing tile can be re-queried without
// double-counting. Missing shards degrade to a *query.PartialError;
// zero answering shards is a hard error.
func (c *Coordinator) fanout(ctx context.Context, op string, tiles []int, cmdFor func(int) string, sink RowSink) (Result, error) {
	if len(tiles) == 0 {
		return Result{Stats: query.Stats{Op: "coord." + op}}, nil
	}
	budget := time.Duration(0)
	if dl, ok := ctx.Deadline(); ok {
		budget = time.Until(dl)
		if budget <= 0 {
			return Result{}, &query.PartialError{Op: "coord." + op, Done: 0, Total: len(tiles), Err: context.DeadlineExceeded}
		}
	}
	// Deadline budget split: shards get the budget minus the merge
	// reserve, the coordinator keeps the reserve to fold the streams.
	shardBudget := time.Duration(0)
	if budget > 0 {
		shardBudget = budget - budget/mergeReserveDiv
	}

	res := Result{ShardsAsked: len(tiles), ShardMS: map[int]float64{}}
	m := &merger{sink: sink, idSet: map[uint64]bool{}, pairSet: map[[2]uint64]bool{}, res: &res}
	answers := make([]shardAnswer, len(tiles))
	var wg sync.WaitGroup
	for i, tile := range tiles {
		wg.Add(1)
		go func(slot, tile int) {
			defer wg.Done()
			answers[slot] = c.queryTile(ctx, tile, cmdFor(tile), shardBudget, m)
		}(i, tile)
	}
	wg.Wait()

	var firstErr error
	var busy *ShardBusyError
	partialReasons := 0
	for _, a := range answers {
		if a.err != nil {
			if firstErr == nil {
				firstErr = a.err
			}
			var sb *ShardBusyError
			if errors.As(a.err, &sb) && (busy == nil || sb.RetryAfter > busy.RetryAfter) {
				busy = sb
			}
			continue
		}
		res.ShardsOK++
		res.ShardMS[a.tile] = a.wallMS
		res.Stats.Merge(a.stats)
		// Commit the shard's staged rows (buffered mode; empty otherwise):
		// its status line arrived, so the stream is complete. The merge
		// cannot fail here — there is no sink to error.
		for _, id := range a.ids {
			_ = m.id(id)
		}
		for _, p := range a.pairs {
			_ = m.pair(p)
		}
		if a.partial != "" {
			partialReasons++
			if firstErr == nil {
				firstErr = fmt.Errorf("shard %d: %s", a.tile, a.partial)
			}
		}
	}
	sort.Slice(res.IDs, func(i, j int) bool { return res.IDs[i] < res.IDs[j] })
	sort.Slice(res.Pairs, func(i, j int) bool {
		if res.Pairs[i][0] != res.Pairs[j][0] {
			return res.Pairs[i][0] < res.Pairs[j][0]
		}
		return res.Pairs[i][1] < res.Pairs[j][1]
	})
	res.Stats.Op = "coord." + op
	res.Stats.Results = m.rows

	if m.sinkErr != nil {
		// The caller's sink failed mid-stream (client gone); report the
		// rows that made it out as a partial with the sink's error as the
		// cause, no matter how many shards were cut off by the abort.
		return res, &query.PartialError{
			Op:    "coord." + op,
			Done:  res.ShardsOK - partialReasons,
			Total: res.ShardsAsked,
			Err:   m.sinkErr,
		}
	}
	if res.ShardsOK == 0 {
		if busy != nil {
			return Result{}, busy
		}
		return Result{}, firstErr
	}
	if res.ShardsOK < res.ShardsAsked || partialReasons > 0 {
		return res, &query.PartialError{
			Op:    "coord." + op,
			Done:  res.ShardsOK - partialReasons,
			Total: res.ShardsAsked,
			Err:   firstErr,
		}
	}
	return res, nil
}

// queryTile runs one tile's sub-query with failover: route to the
// preferred (lowest-index, breaker-closed) replica, and on dial/read
// failure, shard-side error, shard-side partial (the shard itself was
// interrupted — draining for shutdown, or out of budget), or
// per-attempt deadline expiry retry on the next live replica with a
// jittered backoff, re-splitting whatever budget remains across the
// attempt. Replica selection is live, not a snapshot: each retry
// re-consults the breakers, so a replica that was down (or open) when
// the sub-query began is picked up once the prober readmits it — and a
// replica that already failed this sub-query is retried only after its
// success epoch advances (see replica.epoch), which is what saves a
// long query that outlives a whole kill-restart-kill cycle across the
// tile's replicas. With HedgeDelay armed, a second replica is raced
// once the first goes quiet for the delay; the first complete stream
// wins and the loser is cancelled (its connection closed) without
// charging its breaker. The sub-query fails — becoming the tile's
// share of a *query.PartialError — only when every replica is
// exhausted.
func (c *Coordinator) queryTile(ctx context.Context, tile int, cmd string, budget time.Duration, m *merger) shardAnswer {
	reps := c.tiles[tile]
	if f := c.cfg.Faults; f != nil && f.Disconnect(faultinject.SiteCoordShardDown) {
		// The whole tile is injected down, replicas and all.
		err := errors.New("injected shard down")
		reps[0].recordFailure(err)
		return shardAnswer{tile: tile, err: &ShardError{Tile: tile, Addr: reps[0].addr, Err: err}}
	}
	var deadline time.Time
	if budget > 0 {
		deadline = time.Now().Add(budget)
	}

	type outcome struct {
		ans    shardAnswer
		hedged bool
	}
	maxAttempts := 4 * len(reps)
	results := make(chan outcome, maxAttempts)
	var cancels []context.CancelFunc
	defer func() {
		for _, cancel := range cancels {
			cancel()
		}
	}()
	attempts, inflight := 0, 0
	tried := make(map[int]uint64) // replica idx -> okEpoch when its attempt failed
	running := make(map[int]bool) // replica idx currently in flight
	// pick chooses the next attempt from the replicas routable right now:
	// an untried one in candidate order, else one that failed earlier but
	// has fresh success evidence (probe or concurrent query) proving it
	// came back.
	pick := func() *replica {
		if attempts >= maxAttempts {
			return nil
		}
		routable := candidates(reps)
		for _, r := range routable {
			if _, failed := tried[r.idx]; !failed && !running[r.idx] {
				return r
			}
		}
		for _, r := range routable {
			if at, failed := tried[r.idx]; failed && !running[r.idx] && r.epoch() > at {
				return r
			}
		}
		return nil
	}
	launch := func(rep *replica, hedged bool) {
		attempts++
		running[rep.idx] = true
		actx, cancel := context.WithCancel(ctx)
		cancels = append(cancels, cancel)
		inflight++
		ab := budget
		if !deadline.IsZero() {
			// Budget-aware re-split: each attempt gets what actually remains
			// of the tile's share, not the original full budget.
			ab = time.Until(deadline)
		}
		go func() {
			results <- outcome{ans: rep.query(actx, cmd, ab, m), hedged: hedged}
		}()
	}
	// awaitPick rides out a window where no replica is routable: stale
	// failures from a kill can trip a just-restarted replica's breaker,
	// so the tile often only LOOKS fully down until the prober readmits
	// it. Bounded by RecoveryWait, the deadline, and the context.
	awaitPick := func() *replica {
		rw := c.cfg.recoveryWait()
		if rw <= 0 {
			return nil
		}
		until := time.Now().Add(rw)
		if !deadline.IsZero() && deadline.Before(until) {
			until = deadline
		}
		for time.Now().Before(until) {
			if rep := pick(); rep != nil {
				return rep
			}
			select {
			case <-ctx.Done():
				return nil
			case <-time.After(2 * time.Millisecond):
			}
		}
		return nil
	}
	first := pick()
	if first == nil {
		if first = awaitPick(); first == nil {
			return shardAnswer{tile: tile, err: &ShardError{Tile: tile, Addr: reps[0].addr, Err: ErrBreakerOpen}}
		}
	}
	launch(first, false)

	var hedgeC <-chan time.Time
	if c.cfg.HedgeDelay > 0 && len(reps) > 1 {
		t := time.NewTimer(c.cfg.HedgeDelay)
		defer t.Stop()
		hedgeC = t.C
	}

	var winner, partialAns, errAns shardAnswer
	won, havePartial := false, false
	retryOK := func() bool {
		return !won && ctx.Err() == nil &&
			(deadline.IsZero() || time.Until(deadline) > 0)
	}
	for inflight > 0 {
		select {
		case out := <-results:
			inflight--
			running[out.ans.replica] = false
			switch {
			case errors.Is(out.ans.err, errAttemptCancelled):
				// A cancelled loser; nothing to learn from it.
			case out.ans.err == nil && out.ans.partial != "":
				// The shard answered but could not finish — drained by its own
				// shutdown mid-query, or out of budget. (Exactly how a graceful
				// kill mid-join lands: the dying shard flushes a "partial: ...
				// context canceled" status.) Never crown it: keep it as the
				// fallback, retry if another replica is routable, and otherwise
				// let any attempt still in flight — typically the hedge — race
				// to turn the tile back into a complete answer.
				partialAns, havePartial = out.ans, true
				tried[out.ans.replica] = reps[out.ans.replica].epoch()
				if retryOK() {
					if rep := pick(); rep != nil {
						c.retries.Add(1)
						c.backoff(ctx, deadline)
						launch(rep, false)
					}
				}
			case out.ans.err == nil || errors.Is(out.ans.err, errAbortStream):
				// A complete stream (or the session's own sink failed — no
				// replica will fix that). First one wins; cancel the rest.
				if !won {
					won, winner = true, out.ans
					if out.hedged {
						c.hedgesWon.Add(1)
					}
					for _, cancel := range cancels {
						cancel()
					}
				}
			default:
				errAns = out.ans
				tried[out.ans.replica] = reps[out.ans.replica].epoch()
				if retryOK() {
					if rep := pick(); rep != nil {
						c.retries.Add(1)
						c.backoff(ctx, deadline)
						launch(rep, false)
					}
				}
			}
		case <-hedgeC:
			hedgeC = nil
			if !won {
				if rep := pick(); rep != nil {
					c.hedges.Add(1)
					launch(rep, true)
				}
			}
		}
		if inflight == 0 && !won && retryOK() {
			// Last-chance grace before conceding a partial with budget still
			// on the clock: a killed replica may be restarting right now, and
			// the prober readmits it within a cycle or two.
			if rep := awaitPick(); rep != nil {
				c.retries.Add(1)
				launch(rep, false)
			}
		}
	}
	if won {
		return winner
	}
	if havePartial {
		// Every retry after the interrupted answer failed too; the partial
		// rows beat an error.
		return partialAns
	}
	if errAns.err == nil {
		// Every attempt was cancelled out from under us: the fan-out's
		// context died before any replica finished.
		err := ctx.Err()
		if err == nil {
			err = context.DeadlineExceeded
		}
		errAns = shardAnswer{tile: tile, err: &ShardError{Tile: tile, Addr: reps[0].addr, Err: err}}
	}
	return errAns
}

// candidates orders a tile's replicas for routing: breaker-closed
// replicas first (primary preferred), then half-open ones as trial
// traffic; open breakers are skipped entirely.
func candidates(reps []*replica) []*replica {
	var closed, trial []*replica
	for _, r := range reps {
		switch r.admit() {
		case BreakerClosed:
			closed = append(closed, r)
		case BreakerHalfOpen:
			trial = append(trial, r)
		}
	}
	return append(closed, trial...)
}

// backoff sleeps the jittered retry delay (50–150% of RetryBackoff),
// bounded by the sub-query deadline and the context.
func (c *Coordinator) backoff(ctx context.Context, deadline time.Time) {
	d := c.cfg.retryBackoff()
	d = d/2 + time.Duration(rand.Int63n(int64(d)))
	if !deadline.IsZero() {
		if left := time.Until(deadline); left < d {
			d = left
		}
	}
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// probeLoop is the background health prober: every ProbeInterval each
// replica gets one lightweight probe. Probe failures open the replica's
// breaker before query traffic has to discover the corpse; a probe
// success against an open breaker half-opens it, putting the replica
// back into (trial) rotation — active recovery instead of the passive
// cooldown.
func (c *Coordinator) probeLoop() {
	defer c.probeWG.Done()
	t := time.NewTicker(c.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-c.stopProbe:
			return
		case <-t.C:
			for _, reps := range c.tiles {
				for _, r := range reps {
					select {
					case <-c.stopProbe:
						return
					default:
					}
					c.probes.Add(1)
					if err := r.probe(); err != nil {
						c.probeFails.Add(1)
					}
				}
			}
		}
	}
}

// replica is one copy of a tile's client: a pooled set of wire
// connections plus the consecutive-failure breaker.
type replica struct {
	tile int
	idx  int // replica index within the tile; 0 is the primary
	addr string
	cfg  *Config

	mu        sync.Mutex
	idle      []*wireConn
	fails     int   // consecutive failures
	failTotal int64 // lifetime failures (metrics)
	queries   int64
	state     string // breaker state; "" means BreakerClosed
	openUntil time.Time
	lastErr   string
	okEpoch   uint64 // bumped on every success (query or probe); see epoch
}

// wireConn is one established protocol connection with its session
// state (the last timeout sent, so pooled reuse re-arms it only on
// change).
type wireConn struct {
	conn    net.Conn
	r       *bufio.Reader
	timeout time.Duration
}

// role names the replica for operators: the primary serves by default,
// replicas take failover and hedge traffic.
func (r *replica) role() string {
	if r.idx == 0 {
		return "primary"
	}
	return "replica"
}

// breakerState resolves the current state under r.mu: a passively
// cooled-down open breaker (no prober running) reads as half-open once
// the cooldown expires.
func (r *replica) breakerState(now time.Time) string {
	switch r.state {
	case BreakerOpen:
		if r.cfg.ProbeInterval <= 0 && !now.Before(r.openUntil) {
			return BreakerHalfOpen
		}
		return BreakerOpen
	case BreakerHalfOpen:
		return BreakerHalfOpen
	default:
		return BreakerClosed
	}
}

// admit resolves the breaker for routing: the returned state is
// BreakerClosed or BreakerHalfOpen when the replica may be tried, and
// BreakerOpen when it must be skipped. The passive cooldown transition
// (open → half-open) commits here.
func (r *replica) admit() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.breakerState(time.Now())
	r.state = normState(st)
	return st
}

// normState maps the closed state back to the zero value so fresh
// replicas and post-success resets look alike.
func normState(st string) string {
	if st == BreakerClosed {
		return ""
	}
	return st
}

func (r *replica) health() Health {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.breakerState(time.Now())
	return Health{
		Tile:        r.tile,
		Replica:     r.idx,
		Role:        r.role(),
		Addr:        r.addr,
		State:       st,
		Open:        st == BreakerOpen,
		Fails:       r.failTotal,
		ConsecFails: r.fails,
		Queries:     r.queries,
		LastErr:     r.lastErr,
		IdleConn:    len(r.idle),
	}
}

func (r *replica) closeIdle() {
	r.mu.Lock()
	idle := r.idle
	r.idle = nil
	r.mu.Unlock()
	for _, w := range idle {
		w.conn.Close()
	}
}

// acquire returns a pooled connection (pooled true) or dials a fresh
// one. Pooled connections can be stale — the shard may have restarted
// on the same address since they were pooled — so callers retry a
// pooled connection's transport failure once on a fresh dial (after
// scrubbing the pool, whose remaining connections are from the same
// suspect epoch) before charging the replica's breaker.
func (r *replica) acquire() (w *wireConn, pooled bool, err error) {
	r.mu.Lock()
	if n := len(r.idle); n > 0 {
		w := r.idle[n-1]
		r.idle = r.idle[:n-1]
		r.mu.Unlock()
		return w, true, nil
	}
	r.mu.Unlock()

	if f := r.cfg.Faults; f != nil && f.Disconnect(faultinject.SiteCoordDial) {
		return nil, false, errors.New("injected dial fault")
	}
	conn, err := net.DialTimeout("tcp", r.addr, r.cfg.dialTimeout())
	if err != nil {
		return nil, false, err
	}
	w = &wireConn{conn: conn, r: bufio.NewReader(conn)}
	conn.SetReadDeadline(time.Now().Add(r.cfg.dialTimeout()))
	greeting, err := w.readLine(r.cfg.Faults)
	if err != nil {
		conn.Close()
		return nil, false, fmt.Errorf("greeting: %w", err)
	}
	if !strings.Contains(greeting, "ready") {
		conn.Close()
		return nil, false, fmt.Errorf("unexpected greeting %q", greeting)
	}
	return w, false, nil
}

func (r *replica) release(w *wireConn) {
	r.mu.Lock()
	r.idle = append(r.idle, w)
	r.mu.Unlock()
}

// probe is one lightweight health check: acquire a connection (pooled
// or fresh dial + greeting) and exchange a trivial command. Success
// half-opens an open breaker; failure records like a query failure, so
// a dead replica's breaker opens from probes alone.
func (r *replica) probe() error {
	if f := r.cfg.Faults; f != nil && f.Disconnect(faultinject.SiteCoordProbe) {
		err := errors.New("injected probe fault")
		r.recordFailure(fmt.Errorf("probe: %w", err))
		return err
	}
	for attempt := 0; ; attempt++ {
		w, pooled, err := r.acquire()
		if err != nil {
			r.recordFailure(fmt.Errorf("probe: %w", err))
			return err
		}
		w.conn.SetDeadline(time.Now().Add(r.cfg.dialTimeout()))
		_, status, err := w.exchange("layers", r.cfg.Faults)
		if err != nil {
			w.conn.Close()
			if pooled && attempt == 0 {
				// A stale pooled connection (the shard restarted on the same
				// address) must not charge a live replica's breaker: scrub the
				// pool — its siblings are from the same suspect epoch — and
				// re-probe on a fresh dial, which is the real verdict.
				r.closeIdle()
				continue
			}
			r.recordFailure(fmt.Errorf("probe: %w", err))
			return err
		}
		if !strings.HasPrefix(status, "ok") {
			w.conn.Close()
			err := fmt.Errorf("probe: %s", status)
			r.recordFailure(err)
			return err
		}
		r.release(w)
		r.probeSuccess()
		return nil
	}
}

// probeSuccess half-opens an open breaker: the replica is reachable
// again, so trial query traffic may flow; the first real success closes
// the breaker, the first real failure re-opens it.
func (r *replica) probeSuccess() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.breakerState(time.Now()) == BreakerOpen {
		r.state = BreakerHalfOpen
	}
	r.okEpoch++
	// The probe broke the consecutive-failure run, so trial traffic gets
	// the full threshold again: one leftover hiccup must not instantly
	// re-open a breaker the prober just recovered, and sporadic probe
	// blips on an idle tile must not accumulate into a spurious trip.
	// (The passive cooldown path has no probes and deliberately keeps the
	// count — there a failing half-open trial proves the replica still
	// dead, and one strike re-opens.)
	r.fails = 0
}

func (w *wireConn) readLine(f *faultinject.Injector) (string, error) {
	if f != nil && f.Disconnect(faultinject.SiteCoordRead) {
		w.conn.Close()
		return "", errors.New("injected read fault")
	}
	line, err := w.r.ReadString('\n')
	if err != nil {
		return "", err
	}
	return strings.TrimRight(line, "\r\n"), nil
}

// exchangeStream sends one command and hands each data line to onLine
// the moment it is read, returning the trailing status line. An onLine
// error aborts the read loop and is returned as-is, leaving the
// connection mid-stream — the caller must close it.
func (w *wireConn) exchangeStream(cmd string, f *faultinject.Injector, onLine func(string) error) (status string, err error) {
	if _, err := fmt.Fprintf(w.conn, "%s\n", cmd); err != nil {
		return "", err
	}
	for {
		line, err := w.readLine(f)
		if err != nil {
			return "", err
		}
		if line == "ok" || strings.HasPrefix(line, "partial:") || strings.HasPrefix(line, "error:") {
			return line, nil
		}
		if err := onLine(line); err != nil {
			return "", err
		}
	}
}

// exchange is exchangeStream with the data lines collected — used for
// small fixed exchanges like timeout arming.
func (w *wireConn) exchange(cmd string, f *faultinject.Injector) (data []string, status string, err error) {
	status, err = w.exchangeStream(cmd, f, func(line string) error {
		data = append(data, line)
		return nil
	})
	return data, status, err
}

// errAttemptCancelled marks a replica attempt cut short by its own
// context — a hedge loser or a fan-out winding down — as opposed to a
// replica that actually failed. Cancelled attempts never charge the
// breaker and never become the tile's answer.
var errAttemptCancelled = errors.New("coord: attempt cancelled")

// watchCancel closes the attempt's connection when ctx is cancelled, so
// hedge losers stop streaming promptly instead of running to
// completion. The returned stop function disarms the watcher and must
// be called before the connection is released to the pool (otherwise a
// late cancellation could close a pooled connection under an innocent
// future query).
func watchCancel(ctx context.Context, w *wireConn) (stop func()) {
	stopped := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		select {
		case <-ctx.Done():
			w.conn.Close()
		case <-stopped:
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(stopped) })
		<-done
	}
}

// exchangeOnce runs the connection-level portion of one replica
// attempt: acquire, read deadline, timeout arming, and the command
// exchange with rows parsed into the fan-out's merger as they stream.
// A transport failure on a pooled connection is retried once on a
// fresh dial: the shard may have restarted on the same address since
// the connection was pooled, and a stale socket must not fail the
// attempt (or charge the breaker) while the replica itself is healthy.
// The retry scrubs the idle pool — its remaining connections are from
// the same suspect epoch — and drops rows the aborted exchange staged
// (streamed rows dedup in the merger). On success the returned
// connection is live and stop disarms its cancel watcher; on error the
// connection is closed and the watcher already stopped.
func (r *replica) exchangeOnce(ctx context.Context, cmd string, budget time.Duration, m *merger, ans *shardAnswer) (w *wireConn, stop func(), start time.Time, status string, err error) {
	for attempt := 0; ; attempt++ {
		w, pooled, err := r.acquire()
		if err != nil {
			return nil, func() {}, time.Time{}, "", err
		}
		stop := watchCancel(ctx, w)
		staleRetry := func() bool {
			return pooled && attempt == 0 && ctx.Err() == nil
		}

		// The connection read deadline is the hard backstop (shard process
		// hung); the shard-side session timeout is the soft one (shard alive
		// but the query is slow → typed partial from the shard itself).
		readCeil := r.cfg.readTimeout()
		if budget > 0 && budget < readCeil {
			readCeil = budget
		}
		w.conn.SetDeadline(time.Now().Add(readCeil + 500*time.Millisecond))

		if budget > 0 && w.timeout != budget {
			if _, st, err := w.exchange("timeout "+budget.Round(time.Millisecond).String(), r.cfg.Faults); err != nil {
				stop()
				w.conn.Close()
				if staleRetry() {
					r.closeIdle()
					continue
				}
				return nil, func() {}, time.Time{}, "", err
			} else if !strings.HasPrefix(st, "ok") {
				stop()
				w.conn.Close()
				return nil, func() {}, time.Time{}, "", fmt.Errorf("arming timeout: %s", st)
			}
			w.timeout = budget
		}

		begin := time.Now()
		status, err := w.exchangeStream(cmd, r.cfg.Faults, func(line string) error {
			return parseLine(line, m, ans)
		})
		if err != nil {
			stop()
			w.conn.Close()
			if !errors.Is(err, errAbortStream) && staleRetry() {
				ans.ids, ans.pairs = nil, nil
				r.closeIdle()
				continue
			}
			return nil, func() {}, time.Time{}, "", err
		}
		return w, stop, begin, status, nil
	}
}

// query runs one replica attempt end to end: connection acquire,
// shard-side timeout arming, command exchange with rows parsed into the
// fan-out's merger as they stream, breaker accounting. Never blocks
// past the budget (or the configured read ceiling); cancelling ctx
// severs the attempt. Breaker admission is the caller's job (see
// candidates) — by the time query runs, the replica was routable.
func (r *replica) query(ctx context.Context, cmd string, budget time.Duration, m *merger) shardAnswer {
	ans := shardAnswer{tile: r.tile, replica: r.idx}
	cancelled := func() shardAnswer {
		ans.err = fmt.Errorf("%w (%v)", errAttemptCancelled, ctx.Err())
		return ans
	}
	fail := func(err error) shardAnswer {
		if ctx.Err() != nil {
			return cancelled()
		}
		r.recordFailure(err)
		ans.err = &ShardError{Tile: r.tile, Addr: r.addr, Err: err}
		return ans
	}

	r.mu.Lock()
	r.queries++
	r.mu.Unlock()
	if f := r.cfg.Faults; f != nil && f.Disconnect(faultinject.SiteCoordReplicaDown) {
		return fail(errors.New("injected replica down"))
	}
	if ctx.Err() != nil {
		return cancelled()
	}

	w, stopWatch, start, status, err := r.exchangeOnce(ctx, cmd, budget, m, &ans)
	defer stopWatch()
	if err != nil {
		if errors.Is(err, errAbortStream) {
			// The session's result sink failed — the client went away, not
			// the shard. Abandon the stream without touching the breaker.
			ans.err = &ShardError{Tile: r.tile, Addr: r.addr, Err: err}
			return ans
		}
		return fail(err)
	}
	ans.wallMS = float64(time.Since(start).Microseconds()) / 1000

	switch {
	case status == "ok":
	case strings.HasPrefix(status, "partial:"):
		ans.partial = strings.TrimSpace(strings.TrimPrefix(status, "partial:"))
	default: // error: ...
		reason := strings.TrimSpace(strings.TrimPrefix(status, "error:"))
		stopWatch()
		if ctx.Err() != nil {
			// The watcher may have closed the connection as the status
			// arrived; don't pool a maybe-dead conn.
			w.conn.Close()
			return cancelled()
		}
		r.release(w) // protocol intact: the command failed, not the conn
		if m := retryAfterRe.FindStringSubmatch(reason); m != nil {
			if d, perr := time.ParseDuration(m[1]); perr == nil {
				r.recordFailure(errors.New(reason))
				ans.err = &ShardError{Tile: r.tile, Addr: r.addr,
					Err: &ShardBusyError{Tile: r.tile, RetryAfter: d}}
				return ans
			}
		}
		r.recordFailure(errors.New(reason))
		ans.err = &ShardError{Tile: r.tile, Addr: r.addr, Err: errors.New(reason)}
		return ans
	}

	r.recordSuccess()
	stopWatch()
	if ctx.Err() != nil {
		// Completed, but cancelled as the status arrived: the watcher may
		// have closed the connection — don't pool it. The answer is still
		// whole, so return it; a hedged winner race resolves in the
		// tile loop.
		w.conn.Close()
		return ans
	}
	r.release(w)
	return ans
}

func (r *replica) recordFailure(err error) {
	r.mu.Lock()
	r.fails++
	r.failTotal++
	r.lastErr = err.Error()
	var idle []*wireConn
	if r.fails >= r.cfg.breakerThreshold() {
		r.state = BreakerOpen
		r.openUntil = time.Now().Add(r.cfg.breakerCooldown())
		// Drop the pooled connections: a replica that just tripped its
		// breaker is presumed down, and a stale socket surviving into the
		// recovery trial would fail the first query after readmission and
		// re-open the breaker the prober just recovered.
		idle = r.idle
		r.idle = nil
	}
	r.mu.Unlock()
	for _, w := range idle {
		w.conn.Close()
	}
}

func (r *replica) recordSuccess() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.fails = 0
	r.state = ""
	r.openUntil = time.Time{}
	r.okEpoch++
}

// epoch reads the replica's success counter. A sub-query that saw this
// replica fail may try it again only after the epoch advances — fresh
// evidence (a probe or a concurrent query succeeding) that the replica
// recovered, e.g. a restart mid-query. Without that evidence a replica
// is attempted at most once per sub-query, which keeps the R=1
// contract: a lone replica's failure is a typed partial, not a blind
// same-target retry loop.
func (r *replica) epoch() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.okEpoch
}

// parseLine decodes one shard data line — "id <N>" and "pair <A> <B>"
// rows go straight into the fan-out merger when it streams, and stage in
// the shard's answer otherwise (committed by fanout once the status line
// proves the stream complete); "stats <json>" goes into the shard's
// answer, other lines (notes) are ignored.
func parseLine(line string, m *merger, ans *shardAnswer) error {
	word, rest, _ := strings.Cut(line, " ")
	switch word {
	case "id":
		id, err := strconv.ParseUint(strings.TrimSpace(rest), 10, 64)
		if err != nil {
			return fmt.Errorf("bad id line %q: %w", line, err)
		}
		if m.streaming() {
			return m.id(id)
		}
		ans.ids = append(ans.ids, id)
		return nil
	case "pair":
		af, bf, ok := strings.Cut(strings.TrimSpace(rest), " ")
		if !ok {
			return fmt.Errorf("bad pair line %q", line)
		}
		a, err := strconv.ParseUint(af, 10, 64)
		if err != nil {
			return fmt.Errorf("bad pair line %q: %w", line, err)
		}
		b, err := strconv.ParseUint(strings.TrimSpace(bf), 10, 64)
		if err != nil {
			return fmt.Errorf("bad pair line %q: %w", line, err)
		}
		if m.streaming() {
			return m.pair([2]uint64{a, b})
		}
		ans.pairs = append(ans.pairs, [2]uint64{a, b})
		return nil
	case "stats":
		if err := json.Unmarshal([]byte(rest), &ans.stats); err != nil {
			return fmt.Errorf("bad stats line: %w", err)
		}
	default:
		// note: ... and any future informational lines are ignored.
	}
	return nil
}

// shellFormatRect renders an ownership region the way the shard verbs
// parse it (four 'g'-formatted floats; ±Inf round-trips).
func shellFormatRect(r geom.Rect) string {
	f := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	return f(r.MinX) + " " + f(r.MinY) + " " + f(r.MaxX) + " " + f(r.MaxY)
}
