// Package shellcmd is the one command grammar shared by the interactive
// spatialdb shell and spatiald's network wire protocol: a line-oriented
// language over the query engine (gen, load, layers, stats, join, pjoin,
// overlay, within, select, knn, timeout, budget, help). Extracting it
// keeps the two front ends from drifting — a command behaves identically
// typed at the shell prompt, piped over TCP, or posted to the HTTP
// endpoint, and every query reports through the uniform query.Stats
// record that the serving layer logs and aggregates.
//
// An Engine executes one command at a time against a Store (the layer
// namespace). Single-user callers use a MapStore; concurrent callers
// provide a Store whose View method returns a read-consistent snapshot so
// that a join reads both its layers from the same catalog generation.
package shellcmd

import (
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/geom"
	"repro/internal/ingest"
	"repro/internal/query"
	snap "repro/internal/store"
)

// Store is the layer namespace a command executes against. Values are
// query.Source: plain immutable layers and live ingesting tables bind
// under the same names and every query verb works on both.
type Store interface {
	Get(name string) (query.Source, bool)
	// Set binds a name to a source; implementations may refuse (e.g. a
	// bounded server catalog).
	Set(name string, s query.Source) error
	Names() []string
}

// Viewer is optionally implemented by stores that can produce a
// read-consistent view for the duration of one command. The Engine takes
// one view per Exec, so a two-layer query never mixes catalog
// generations.
type Viewer interface {
	View() Store
}

// MapStore is the plain single-session Store used by the interactive
// shell and by stateless one-shot callers.
type MapStore map[string]query.Source

// Get looks the name up.
func (m MapStore) Get(name string) (query.Source, bool) { s, ok := m[name]; return s, ok }

// Set binds the name; a MapStore never refuses.
func (m MapStore) Set(name string, s query.Source) error { m[name] = s; return nil }

// Names lists the bound names, sorted.
func (m MapStore) Names() []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Settings are the per-session query guards, mutated by the timeout and
// budget commands.
type Settings struct {
	// Timeout bounds each query; zero means none.
	Timeout time.Duration
	// MaxTimeout is a server-imposed ceiling on the effective per-query
	// wall-clock budget: sessions may lower their timeout below it but
	// not escape it (zero means no ceiling). The effective budget is
	// min(Timeout, MaxTimeout), with zero Timeout meaning "just the
	// ceiling".
	MaxTimeout time.Duration
	// Budget caps MBR-filter candidates per query; zero means unlimited.
	Budget int
	// NoIntervals ablates the v2 interval-approximation filter back to
	// the v1 raster-signature path. Differential knob for the intervals
	// verb.
	NoIntervals bool
}

// EffectiveTimeout resolves the session timeout against the server
// ceiling; zero means unbounded.
func (s Settings) EffectiveTimeout() time.Duration {
	d := s.Timeout
	if s.MaxTimeout > 0 && (d == 0 || d > s.MaxTimeout) {
		d = s.MaxTimeout
	}
	return d
}

// Result reports what one executed command did, in the uniform serving
// shape.
type Result struct {
	// Stats is the query's uniform statistics record; for non-query
	// commands only Op is set.
	Stats query.Stats
	// Partial is non-nil when the query was interrupted (timeout or
	// cancellation): the output above it is valid but incomplete.
	Partial *query.PartialError
	// Mutation reports that the command changed the store or settings.
	Mutation bool
}

// Engine executes commands against a store with per-session settings.
// An Engine is not safe for concurrent use; give each session its own.
type Engine struct {
	Store    Store
	Settings Settings
	// NewTester overrides refinement tester construction for the "sw"/
	// "hw" (default) modes; nil uses hardware-assisted defaults.
	NewTester func(mode string) (*core.Tester, error)
	// DataDir, when set, is where save and load resolve bare snapshot
	// names: a path without a directory separator lands under DataDir,
	// and a missing extension gets ".snap".
	DataDir string
	// Live, when set, enables the durable ingestion verbs (live, insert,
	// delete, compact); tables open rooted at the manager's data
	// directory. Nil disables ingestion with a clear error.
	Live *ingest.Manager
	// Coord, when set, switches the engine into coordinator mode: the
	// query verbs fan out over the shard fleet instead of running the
	// local refinement pipeline, and local data verbs are refused with a
	// typed *CoordUnsupportedError (see coordmode.go).
	Coord *coord.Coordinator
}

// snapPath resolves a snapshot argument against the engine's DataDir.
func (e *Engine) snapPath(p string) string {
	if filepath.Ext(p) == "" {
		p += ".snap"
	}
	if e.DataDir != "" && !strings.ContainsAny(p, `/\`) {
		p = filepath.Join(e.DataDir, p)
	}
	return p
}

// IsQuery reports whether the verb runs the refinement pipeline (and so
// should pass a server's admission control), as opposed to an
// administrative command.
func IsQuery(verb string) bool {
	switch verb {
	case "join", "pjoin", "overlay", "within", "select", "knn",
		"shardjoin", "shardwithin", "shardselect", "batch":
		return true
	}
	return false
}

// Verb returns the command word of a line ("" for blank lines).
func Verb(line string) string {
	f := strings.Fields(line)
	if len(f) == 0 {
		return ""
	}
	return f[0]
}

// Exec runs one command line, writing its human-readable output to out.
// Hard failures (bad syntax, unknown layers, budget overflows) are
// returned as errors with nothing of substance written; interruptions
// are soft — partial output is written, a note line records the
// interruption, and Result.Partial carries the typed error.
func (e *Engine) Exec(ctx context.Context, line string, out io.Writer) (Result, error) {
	fields := strings.Fields(line)
	if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
		return Result{}, nil
	}
	cmd, args := fields[0], fields[1:]
	switch cmd {
	case "batch":
		// One round trip, one admission slot, N sub-commands; works in
		// both local and coordinator mode, so it dispatches before the
		// coordinator switch.
		return e.batchCmd(ctx, line, out)
	case "intervals":
		return e.setIntervals(args, out)
	}
	if e.Coord != nil {
		return e.coordExec(ctx, cmd, args, line, out)
	}
	store := e.Store
	if v, ok := store.(Viewer); ok {
		store = v.View()
	}
	switch cmd {
	case "help":
		fmt.Fprint(out, Help)
		return Result{Stats: query.Stats{Op: "help"}}, nil
	case "gen":
		return e.gen(store, args, out)
	case "load":
		return e.load(store, args, out)
	case "save":
		return e.save(store, args, out)
	case "layers":
		e.listLayers(store, out)
		return Result{Stats: query.Stats{Op: "layers"}}, nil
	case "stats":
		return e.layerStats(store, args, out)
	case "timeout":
		return e.setTimeout(args, out)
	case "budget":
		return e.setBudget(args, out)
	case "live":
		return e.live(store, args, out)
	case "insert":
		return e.insert(ctx, store, line, out)
	case "delete":
		return e.deleteCmd(ctx, store, args, out)
	case "compact":
		return e.compact(ctx, store, args, out)
	case "join":
		return e.join(ctx, store, args, out)
	case "pjoin":
		return e.pjoin(ctx, store, args, out)
	case "overlay":
		return e.overlay(ctx, store, args, out)
	case "within":
		return e.within(ctx, store, args, out)
	case "select":
		return e.selectCmd(ctx, store, line, out)
	case "knn":
		return e.knn(ctx, store, line, out)
	case "partition":
		return e.partitionCmd(store, args, out)
	case "shardselect":
		return e.shardSelect(ctx, store, line, out)
	case "shardjoin":
		return e.shardJoin(ctx, store, args, out)
	case "shardwithin":
		return e.shardWithin(ctx, store, args, out)
	default:
		return Result{}, fmt.Errorf("unknown command %q (try help)", cmd)
	}
}

// Help is the grammar reference printed by the help command.
const Help = `commands:
  gen <name> <DATASET> <scale>      generate a synthetic layer (LANDC, LANDO, STATES50, PRISM, WATER)
  load <name> <path>                load a layer from .json, .wkt, or a .snap snapshot
  save <name> <path> [nointervals]  save a layer as a binary snapshot (indexes + signatures + intervals)
  layers                            list loaded layers
  stats <name>                      Table 2 statistics of a layer
  join <a> <b> [sw|hw]              intersection join (default hw)
  pjoin <a> <b> [workers]           intersection join on N refinement workers (default: all CPUs)
  overlay <a> <b>                   map overlay: per-pair intersection areas
  within <a> <b> <D> [sw|hw]        within-distance join
  select <layer> <WKT POLYGON>      intersection selection with a query polygon
  knn <layer> <WKT POLYGON> <k>     k nearest objects to a query polygon
  timeout <duration|off>            bound each query (e.g. timeout 2s)
  budget <n|off>                    cap MBR candidates per query
  intervals <on|off>                v2 interval-approximation filter (off = v1 signature path)
  batch <cmd>; <cmd>; ...           run N commands in one round trip under one admission slot
  partition <layer> <n> <dir> [m [r]]  split a layer into n spatial tiles under dir (replication margin m, r replicas per tile)
  shardselect <layer> <WKT>         shard-side select: emits "id <N>" lines with stable ids
  shardjoin <a> <b> <region> [mode] shard-side join over an ownership region (4 floats): emits "pair <A> <B>"
  shardwithin <a> <b> <D> <region>  shard-side within-distance join with reference-point dedup
  live <name>                       open (or create) a durable live table
  insert <table> <WKT POLYGON>      durably insert; acks after the WAL group commit
  delete <table> <id>               durably tombstone the object with the stable id
  compact <table>                   fold the live delta into a fresh snapshot generation
  quit                              leave

Interrupted queries (timeout or budget) report their partial results and
the typed error instead of failing silently. Queries over a live table
read snapshot ∪ delta − tombstones; knn and overlay need a compacted
table.
`

// viewOf resolves a name to a point-in-time read view; live tables
// compose snapshot ∪ delta − tombstones, plain layers are themselves.
func viewOf(store Store, name string) (*query.View, error) {
	s, ok := store.Get(name)
	if !ok {
		return nil, fmt.Errorf("no layer %q (see layers)", name)
	}
	return s.View(), nil
}

// singleOf resolves a name for verbs that require an undecorated layer
// (kNN's ordered index walk, the overlay join): live views with pending
// mutations are refused with the typed compact-first error.
func singleOf(store Store, name, op string) (*query.Layer, error) {
	v, err := viewOf(store, name)
	if err != nil {
		return nil, err
	}
	if l, ok := v.Single(); ok {
		return l, nil
	}
	return nil, &query.LiveUnsupportedError{Op: op}
}

// tableOf resolves a name to a live ingesting table.
func tableOf(store Store, name string) (*ingest.Table, error) {
	s, ok := store.Get(name)
	if !ok {
		return nil, fmt.Errorf("no layer %q (see layers)", name)
	}
	t, ok := s.(*ingest.Table)
	if !ok {
		return nil, fmt.Errorf("layer %q is not a live table (bind one with live)", name)
	}
	return t, nil
}

// liveStats folds the views' live composition into the stats record so
// access logs show when a query paid the uncompacted-delta price.
func liveStats(st *query.Stats, views ...*query.View) {
	for _, v := range views {
		if _, ok := v.Single(); ok {
			continue
		}
		_, delta, tombs := v.Counts()
		st.LiveDelta += delta
		st.LiveTombstones += tombs
	}
}

func (e *Engine) gen(store Store, args []string, out io.Writer) (Result, error) {
	if len(args) != 3 {
		return Result{}, fmt.Errorf("usage: gen <name> <DATASET> <scale>")
	}
	scale, err := strconv.ParseFloat(args[2], 64)
	if err != nil {
		return Result{}, fmt.Errorf("bad scale: %w", err)
	}
	d, err := data.Load(strings.ToUpper(args[1]), scale)
	if err != nil {
		return Result{}, err
	}
	if err := store.Set(args[0], query.NewLayer(d)); err != nil {
		return Result{}, err
	}
	fmt.Fprintf(out, "layer %q: %d objects\n", args[0], len(d.Objects))
	return Result{Stats: query.Stats{Op: "gen", Results: len(d.Objects)}, Mutation: true}, nil
}

func (e *Engine) load(store Store, args []string, out io.Writer) (Result, error) {
	if len(args) != 2 {
		return Result{}, fmt.Errorf("usage: load <name> <path>")
	}
	if strings.HasSuffix(args[1], ".snap") || filepath.Ext(args[1]) == "" {
		return e.loadSnap(store, args[0], e.snapPath(args[1]), out)
	}
	var (
		d   *data.Dataset
		err error
	)
	if strings.HasSuffix(args[1], ".wkt") {
		d, err = data.LoadWKTFile(args[1])
	} else {
		d, err = data.LoadFile(args[1])
	}
	if err != nil {
		return Result{}, err
	}
	if err := store.Set(args[0], query.NewLayer(d)); err != nil {
		return Result{}, err
	}
	fmt.Fprintf(out, "layer %q: %d objects\n", args[0], len(d.Objects))
	return Result{Stats: query.Stats{Op: "load", Results: len(d.Objects)}, Mutation: true}, nil
}

// loadSnap binds a layer loaded from a binary snapshot: the R-tree, edge
// boxes and raster signatures come from the file instead of being
// rebuilt, and the load provenance flows into the stats record.
func (e *Engine) loadSnap(store Store, name, path string, out io.Writer) (Result, error) {
	s, err := snap.Open(path, snap.OpenOptions{})
	if err != nil {
		return Result{}, err
	}
	l, err := query.NewLayerFromSnapshot(s)
	if err != nil {
		s.Close()
		return Result{}, err
	}
	if err := store.Set(name, l); err != nil {
		s.Close()
		return Result{}, err
	}
	st := s.Stats()
	fmt.Fprintf(out, "layer %q: %d objects from snapshot (%d bytes, %d sections, mmap=%v, %.1fms)\n",
		name, s.NumObjects(), st.Bytes, st.Sections, st.MMap, st.LoadMS)
	return Result{
		Stats: query.Stats{
			Op: "load", Results: s.NumObjects(),
			SnapshotBytes: st.Bytes, SnapshotSections: st.Sections,
			SnapshotMMap: st.MMap, SnapshotLoadMS: st.LoadMS,
		},
		Mutation: true,
	}, nil
}

func (e *Engine) save(store Store, args []string, out io.Writer) (Result, error) {
	if len(args) < 2 || len(args) > 3 {
		return Result{}, fmt.Errorf("usage: save <name> <path> [nointervals]")
	}
	opts := snap.SaveOptions{Tool: "spatialdb"}
	if len(args) == 3 {
		if args[2] != "nointervals" {
			return Result{}, fmt.Errorf("bad save option %q (only nointervals)", args[2])
		}
		opts.IntervalOrder = -1
	}
	v, err := viewOf(store, args[0])
	if err != nil {
		return Result{}, err
	}
	path := e.snapPath(args[1])
	bs, err := snap.Save(path, v.Dataset(), opts)
	if err != nil {
		return Result{}, err
	}
	fmt.Fprintf(out, "saved %q to %s: %d objects, %d sections, %d bytes in %.1fms\n",
		args[0], path, bs.Objects, bs.Sections, bs.Bytes, bs.BuildMS)
	return Result{Stats: query.Stats{Op: "save", Results: bs.Objects}, Mutation: true}, nil
}

func (e *Engine) listLayers(store Store, out io.Writer) {
	names := store.Names()
	if len(names) == 0 {
		fmt.Fprintln(out, "(no layers; use gen or load)")
		return
	}
	for _, n := range names {
		if s, ok := store.Get(n); ok {
			v := s.View()
			origin := v.Origin()
			if _, single := v.Single(); !single {
				_, delta, tombs := v.Counts()
				origin = fmt.Sprintf("%s; +%d/-%d uncompacted", origin, delta, tombs)
			}
			fmt.Fprintf(out, "%-12s %6d objects  bounds %v  [%s]\n", n, v.NumObjects(), v.Dataset().Bounds(), origin)
		}
	}
}

func (e *Engine) layerStats(store Store, args []string, out io.Writer) (Result, error) {
	if len(args) != 1 {
		return Result{}, fmt.Errorf("usage: stats <name>")
	}
	v, err := viewOf(store, args[0])
	if err != nil {
		return Result{}, err
	}
	s := v.Dataset().Stats()
	fmt.Fprintf(out, "N=%d vertices min/avg/max = %d/%.0f/%d total=%d avgMBR=%.2fx%.2f\n",
		s.N, s.MinVerts, s.AvgVerts, s.MaxVerts, s.TotalVerts, s.AvgMBRWidth, s.AvgMBRHeight)
	return Result{Stats: query.Stats{Op: "stats"}}, nil
}

func (e *Engine) setTimeout(args []string, out io.Writer) (Result, error) {
	if len(args) != 1 {
		return Result{}, fmt.Errorf("usage: timeout <duration|off>")
	}
	if args[0] == "off" {
		e.Settings.Timeout = 0
		fmt.Fprintln(out, "timeout off")
		return Result{Stats: query.Stats{Op: "timeout"}, Mutation: true}, nil
	}
	d, err := time.ParseDuration(args[0])
	if err != nil || d < 0 {
		return Result{}, fmt.Errorf("bad duration %q", args[0])
	}
	e.Settings.Timeout = d
	if m := e.Settings.MaxTimeout; m > 0 && (d == 0 || d > m) {
		fmt.Fprintf(out, "timeout %v (capped at server limit %v)\n", d, m)
	} else {
		fmt.Fprintf(out, "timeout %v\n", d)
	}
	return Result{Stats: query.Stats{Op: "timeout"}, Mutation: true}, nil
}

func (e *Engine) setBudget(args []string, out io.Writer) (Result, error) {
	if len(args) != 1 {
		return Result{}, fmt.Errorf("usage: budget <n|off>")
	}
	if args[0] == "off" {
		e.Settings.Budget = 0
		fmt.Fprintln(out, "budget off")
		return Result{Stats: query.Stats{Op: "budget"}, Mutation: true}, nil
	}
	n, err := strconv.Atoi(args[0])
	if err != nil || n < 0 {
		return Result{}, fmt.Errorf("bad budget %q", args[0])
	}
	e.Settings.Budget = n
	fmt.Fprintf(out, "budget %d candidates\n", n)
	return Result{Stats: query.Stats{Op: "budget"}, Mutation: true}, nil
}

// setIntervals toggles the v2 interval-approximation filter:
// intervals <on|off>. "off" falls back to the v1 raster-signature path
// everywhere (the ablation baseline); result sets are identical either
// way, only which filter resolves each pair changes.
func (e *Engine) setIntervals(args []string, out io.Writer) (Result, error) {
	if len(args) != 1 {
		return Result{}, fmt.Errorf("usage: intervals <on|off>")
	}
	switch args[0] {
	case "on":
		e.Settings.NoIntervals = false
	case "off":
		e.Settings.NoIntervals = true
	default:
		return Result{}, fmt.Errorf("intervals must be on or off, got %q", args[0])
	}
	state := "on"
	if e.Settings.NoIntervals {
		state = "off"
	}
	fmt.Fprintf(out, "intervals %s\n", state)
	return Result{Stats: query.Stats{Op: "intervals"}, Mutation: true}, nil
}

// batchCmd executes N ";"-separated sub-commands in one round trip under
// the single admission slot the batch verb itself was admitted on. Each
// sub-command's output streams in order, delimited by a "sub <n> ok:
// <op>" / "sub <n> partial: <reason>" / "sub <n> error: <reason>"
// trailer line, and the merged stats record reports the whole batch. A
// failing sub-command does not abort the rest; a partial sub-result
// marks the batch partial (the first partial's reason wins — the
// per-sub trailers name every incomplete sub-command).
func (e *Engine) batchCmd(ctx context.Context, line string, out io.Writer) (Result, error) {
	rest := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(line), "batch"))
	if rest == "" {
		return Result{}, fmt.Errorf("usage: batch <cmd>; <cmd>; ...")
	}
	agg := Result{Stats: query.Stats{Op: "batch"}}
	n := 0
	for _, sub := range strings.Split(rest, ";") {
		sub = strings.TrimSpace(sub)
		if sub == "" {
			continue
		}
		if Verb(sub) == "batch" {
			return Result{}, fmt.Errorf("batch cannot nest batch")
		}
		n++
		res, err := e.Exec(ctx, sub, out)
		if err != nil {
			fmt.Fprintf(out, "sub %d error: %v\n", n, err)
			continue
		}
		if res.Partial != nil && agg.Partial == nil {
			agg.Partial = res.Partial
		}
		agg.Mutation = agg.Mutation || res.Mutation
		op := res.Stats.Op
		res.Stats.Op = ""
		agg.Stats.Merge(res.Stats)
		agg.Stats.Op = "batch"
		if res.Partial != nil {
			fmt.Fprintf(out, "sub %d partial: %v\n", n, res.Partial)
		} else {
			fmt.Fprintf(out, "sub %d ok: %s\n", n, op)
		}
	}
	if n == 0 {
		return Result{}, fmt.Errorf("usage: batch <cmd>; <cmd>; ...")
	}
	return agg, nil
}

// testerFactory validates the tester mode once and returns the
// per-worker constructor the pipeline drivers need (core.Tester is not
// safe for concurrent use, so each stage worker builds its own).
func (e *Engine) testerFactory(mode string) (func() *core.Tester, error) {
	if _, err := e.tester(mode); err != nil {
		return nil, err
	}
	return func() *core.Tester {
		t, err := e.tester(mode)
		if err != nil { // unreachable: the mode was validated above
			return core.NewTester(core.Config{DisableHardware: true})
		}
		return t
	}, nil
}

// pipelineOpts assembles the staged-pipeline options from the session
// settings for the given tester mode.
func (e *Engine) pipelineOpts(mode string, workers int) (query.PipelineOptions, error) {
	tf, err := e.testerFactory(mode)
	if err != nil {
		return query.PipelineOptions{}, err
	}
	return query.PipelineOptions{Workers: workers, Tester: tf,
		MaxCandidates: e.Settings.Budget, NoIntervals: e.Settings.NoIntervals}, nil
}

// selectOpts assembles the selection options every select verb runs
// with from the session settings; sink, when non-nil, streams result ids.
func (e *Engine) selectOpts(sink func(ids []int) error) query.SelectionOptions {
	return query.SelectionOptions{InteriorLevel: 4, MaxCandidates: e.Settings.Budget,
		NoIntervals: e.Settings.NoIntervals, Sink: sink}
}

// qctx derives the per-query context from the session's timeout setting
// capped by the server ceiling. Deadline expiry is attributed to a typed
// *query.DeadlineError cause, so partial results distinguish "ran out of
// budget" from an operator cancellation.
func (e *Engine) qctx(ctx context.Context) (context.Context, context.CancelFunc) {
	if d := e.Settings.EffectiveTimeout(); d > 0 {
		return context.WithTimeoutCause(ctx, d, &query.DeadlineError{Budget: d})
	}
	return context.WithCancel(ctx)
}

// note writes the interruption note (partial results were already
// reported) and extracts the typed partial error for the Result.
func note(out io.Writer, err error) *query.PartialError {
	if err == nil {
		return nil
	}
	var pe *query.PartialError
	if errors.As(err, &pe) {
		fmt.Fprintf(out, "note: %v (results above are partial)\n", err)
		return pe
	}
	fmt.Fprintln(out, "note:", err)
	return nil
}

func (e *Engine) tester(mode string) (*core.Tester, error) {
	if e.NewTester != nil {
		return e.NewTester(mode)
	}
	switch mode {
	case "", "hw":
		return core.NewTester(core.Config{SWThreshold: core.DefaultSWThreshold}), nil
	case "sw":
		return core.NewTester(core.Config{DisableHardware: true}), nil
	default:
		return nil, fmt.Errorf("mode must be sw or hw, got %q", mode)
	}
}

func (e *Engine) join(ctx context.Context, store Store, args []string, out io.Writer) (Result, error) {
	if len(args) < 2 || len(args) > 3 {
		return Result{}, fmt.Errorf("usage: join <a> <b> [sw|hw]")
	}
	a, err := viewOf(store, args[0])
	if err != nil {
		return Result{}, err
	}
	b, err := viewOf(store, args[1])
	if err != nil {
		return Result{}, err
	}
	mode := ""
	if len(args) == 3 {
		mode = args[2]
	}
	tester, err := e.tester(mode)
	if err != nil {
		return Result{}, err
	}
	qctx, cancel := e.qctx(ctx)
	defer cancel()
	pairs, cost, qerr := query.IntersectionJoinView(qctx, a, b, tester,
		query.JoinOptions{MaxCandidates: e.Settings.Budget, NoIntervals: e.Settings.NoIntervals})
	var be *query.BudgetError
	if errors.As(qerr, &be) {
		return Result{}, qerr
	}
	report(out, "join", len(pairs), cost)
	st := query.NewStats("join", len(pairs), cost, tester.Stats)
	reportIntervals(out, st)
	liveStats(&st, a, b)
	return Result{
		Stats:   st,
		Partial: note(out, qerr),
	}, nil
}

func (e *Engine) pjoin(ctx context.Context, store Store, args []string, out io.Writer) (Result, error) {
	if len(args) < 2 || len(args) > 3 {
		return Result{}, fmt.Errorf("usage: pjoin <a> <b> [workers]")
	}
	a, err := viewOf(store, args[0])
	if err != nil {
		return Result{}, err
	}
	b, err := viewOf(store, args[1])
	if err != nil {
		return Result{}, err
	}
	workers := 0
	if len(args) == 3 {
		if workers, err = strconv.Atoi(args[2]); err != nil || workers < 0 {
			return Result{}, fmt.Errorf("bad worker count %q", args[2])
		}
	}
	opt, err := e.pipelineOpts("", workers)
	if err != nil {
		return Result{}, err
	}
	qctx, cancel := e.qctx(ctx)
	defer cancel()
	start := time.Now()
	pairs, stats, qerr := query.PipelineIntersectionJoinView(qctx, a, b, opt)
	var be *query.BudgetError
	if errors.As(qerr, &be) {
		return Result{}, qerr
	}
	fmt.Fprintf(out, "pjoin: %d results in %v (%d tests", len(pairs),
		time.Since(start).Round(time.Microsecond), stats.Tests)
	if stats.Panics > 0 || stats.Quarantined > 0 {
		fmt.Fprintf(out, "; %d panics recovered, %d pairs quarantined", stats.Panics, stats.Quarantined)
	}
	fmt.Fprintln(out, ")")
	st := query.NewStats("pjoin", len(pairs), query.Cost{}, stats)
	reportIntervals(out, st)
	liveStats(&st, a, b)
	return Result{
		Stats:   st,
		Partial: note(out, qerr),
	}, nil
}

func (e *Engine) within(ctx context.Context, store Store, args []string, out io.Writer) (Result, error) {
	if len(args) < 3 || len(args) > 4 {
		return Result{}, fmt.Errorf("usage: within <a> <b> <D> [sw|hw]")
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
	mode := ""
	if len(args) == 4 {
		mode = args[3]
	}
	tester, err := e.tester(mode)
	if err != nil {
		return Result{}, err
	}
	qctx, cancel := e.qctx(ctx)
	defer cancel()
	pairs, cost, qerr := query.WithinDistanceJoinView(qctx, a, b, d, tester,
		query.DistanceFilterOptions{Use0Object: true, Use1Object: true, MaxCandidates: e.Settings.Budget})
	var be *query.BudgetError
	if errors.As(qerr, &be) {
		return Result{}, qerr
	}
	report(out, "within", len(pairs), cost)
	st := query.NewStats("within", len(pairs), cost, tester.Stats)
	liveStats(&st, a, b)
	return Result{
		Stats:   st,
		Partial: note(out, qerr),
	}, nil
}

func (e *Engine) overlay(ctx context.Context, store Store, args []string, out io.Writer) (Result, error) {
	if len(args) != 2 {
		return Result{}, fmt.Errorf("usage: overlay <a> <b>")
	}
	a, err := singleOf(store, args[0], "overlay")
	if err != nil {
		return Result{}, err
	}
	b, err := singleOf(store, args[1], "overlay")
	if err != nil {
		return Result{}, err
	}
	tester, err := e.tester("hw")
	if err != nil {
		return Result{}, err
	}
	qctx, cancel := e.qctx(ctx)
	defer cancel()
	pairs, cost, qerr := query.OverlayAreaJoin(qctx, a, b, tester)
	var be *query.BudgetError
	if errors.As(qerr, &be) {
		return Result{}, qerr
	}
	var total float64
	for _, op := range pairs {
		total += op.Area
	}
	fmt.Fprintf(out, "overlay: %d overlapping pairs, %.4f units² shared area (total %v)\n",
		len(pairs), total, cost.Total().Round(time.Millisecond))
	return Result{
		Stats:   query.NewStats("overlay", len(pairs), cost, tester.Stats),
		Partial: note(out, qerr),
	}, nil
}

// selectCmd and knn take the raw line because WKT contains spaces.
func (e *Engine) selectCmd(ctx context.Context, store Store, line string, out io.Writer) (Result, error) {
	rest := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(line), "select"))
	name, wkt, ok := strings.Cut(rest, " ")
	if !ok {
		return Result{}, fmt.Errorf("usage: select <layer> <WKT POLYGON>")
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
	ids, cost, qerr := query.IntersectionSelectView(qctx, v, q, tester, e.selectOpts(nil))
	var be *query.BudgetError
	if errors.As(qerr, &be) {
		return Result{}, qerr
	}
	report(out, "select", len(ids), cost)
	st := query.NewStats("select", len(ids), cost, tester.Stats)
	reportIntervals(out, st)
	liveStats(&st, v)
	return Result{
		Stats:   st,
		Partial: note(out, qerr),
	}, nil
}

func (e *Engine) knn(ctx context.Context, store Store, line string, out io.Writer) (Result, error) {
	rest := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(line), "knn"))
	name, rest, ok := strings.Cut(rest, " ")
	if !ok {
		return Result{}, fmt.Errorf("usage: knn <layer> <WKT POLYGON> <k>")
	}
	l, err := singleOf(store, name, "knn")
	if err != nil {
		return Result{}, err
	}
	i := strings.LastIndexByte(rest, ' ')
	if i < 0 {
		return Result{}, fmt.Errorf("usage: knn <layer> <WKT POLYGON> <k>")
	}
	k, err := strconv.Atoi(strings.TrimSpace(rest[i+1:]))
	if err != nil {
		return Result{}, fmt.Errorf("bad k: %w", err)
	}
	q, err := geom.ParsePolygonWKT(rest[:i])
	if err != nil {
		return Result{}, err
	}
	start := time.Now()
	qctx, cancel := e.qctx(ctx)
	defer cancel()
	neighbors, qerr := query.KNearest(qctx, l, q, k, dist.Options{})
	fmt.Fprintf(out, "%d neighbors in %v:\n", len(neighbors), time.Since(start).Round(time.Microsecond))
	for _, nb := range neighbors {
		fmt.Fprintf(out, "  object %-6d distance %.4f\n", nb.ID, nb.Distance)
	}
	return Result{
		Stats:   query.Stats{Op: "knn", Results: len(neighbors)},
		Partial: note(out, qerr),
	}, nil
}

func (e *Engine) live(store Store, args []string, out io.Writer) (Result, error) {
	if len(args) != 1 {
		return Result{}, fmt.Errorf("usage: live <name>")
	}
	if e.Live == nil {
		return Result{}, fmt.Errorf("live ingestion is not enabled on this engine")
	}
	t, err := e.Live.Open(args[0])
	if err != nil {
		return Result{}, err
	}
	if err := store.Set(args[0], t); err != nil {
		return Result{}, err
	}
	st := t.Stats()
	fmt.Fprintf(out, "live table %q: %d objects (%d wal records recovered, applied lsn %d)\n",
		args[0], st.Objects, st.WAL.Recovered, st.AppliedLSN)
	return Result{Stats: query.Stats{Op: "live", Results: st.Objects}, Mutation: true}, nil
}

// insert takes the raw line because WKT contains spaces.
func (e *Engine) insert(ctx context.Context, store Store, line string, out io.Writer) (Result, error) {
	rest := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(line), "insert"))
	name, wkt, ok := strings.Cut(rest, " ")
	if !ok {
		return Result{}, fmt.Errorf("usage: insert <table> <WKT POLYGON>")
	}
	t, err := tableOf(store, name)
	if err != nil {
		return Result{}, err
	}
	p, err := geom.ParsePolygonWKT(wkt)
	if err != nil {
		return Result{}, err
	}
	qctx, cancel := e.qctx(ctx)
	defer cancel()
	start := time.Now()
	id, err := t.Insert(qctx, p)
	if err != nil {
		return Result{}, err
	}
	fmt.Fprintf(out, "inserted id %d into %q in %v (%d uncompacted)\n",
		id, name, time.Since(start).Round(time.Microsecond), t.Pending())
	return Result{Stats: query.Stats{Op: "insert", Results: 1}, Mutation: true}, nil
}

func (e *Engine) deleteCmd(ctx context.Context, store Store, args []string, out io.Writer) (Result, error) {
	if len(args) != 2 {
		return Result{}, fmt.Errorf("usage: delete <table> <id>")
	}
	t, err := tableOf(store, args[0])
	if err != nil {
		return Result{}, err
	}
	id, err := strconv.ParseUint(args[1], 10, 64)
	if err != nil {
		return Result{}, fmt.Errorf("bad id %q", args[1])
	}
	qctx, cancel := e.qctx(ctx)
	defer cancel()
	start := time.Now()
	if err := t.Delete(qctx, id); err != nil {
		return Result{}, err
	}
	fmt.Fprintf(out, "deleted id %d from %q in %v (%d uncompacted)\n",
		id, args[0], time.Since(start).Round(time.Microsecond), t.Pending())
	return Result{Stats: query.Stats{Op: "delete", Results: 1}, Mutation: true}, nil
}

func (e *Engine) compact(ctx context.Context, store Store, args []string, out io.Writer) (Result, error) {
	if len(args) != 1 {
		return Result{}, fmt.Errorf("usage: compact <table>")
	}
	t, err := tableOf(store, args[0])
	if err != nil {
		return Result{}, err
	}
	start := time.Now()
	if err := t.Compact(ctx); err != nil {
		return Result{}, err
	}
	st := t.Stats()
	fmt.Fprintf(out, "compacted %q in %v: %d objects, %d folded, wal truncated %d segments\n",
		args[0], time.Since(start).Round(time.Microsecond), st.Objects, st.LastFolded, st.WAL.Truncated)
	return Result{Stats: query.Stats{Op: "compact", Results: st.Objects}, Mutation: true}, nil
}

// reportIntervals writes the v2 interval-filter resolution line when the
// filter participated; scripted smoke checks grep these key=value fields.
func reportIntervals(out io.Writer, st query.Stats) {
	if st.IntervalChecks == 0 {
		return
	}
	fmt.Fprintf(out, "intervals: interval_checks=%d interval_true_hits=%d interval_rejects=%d interval_inconclusive=%d\n",
		st.IntervalChecks, st.IntervalTrueHits, st.IntervalRejects, st.IntervalInconclusive)
}

func report(out io.Writer, op string, results int, cost query.Cost) {
	fmt.Fprintf(out, "%s: %d results (mbr %v, filter %v, geometry %v; %d candidates, %d compared)\n",
		op, results,
		cost.MBRFilter.Round(time.Microsecond),
		cost.IntermediateFilter.Round(time.Microsecond),
		cost.GeometryComparison.Round(time.Microsecond),
		cost.Candidates, cost.Compared)
}
