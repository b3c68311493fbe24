package main

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/data"
	"repro/internal/geom"
	"repro/internal/ingest"
	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/shellcmd"
	"repro/internal/store"
)

const (
	liveTable = "wlive"
	// writeRate is the open-loop writer's fixed rate (writes/s): high
	// enough that compactions land inside every window, low enough that
	// the 2-core machine keeps the schedule.
	writeRate = 500
	// backlog is the acked-insert count after which the writer alternates
	// inserts with deletes of the oldest acked id.
	backlog = 200
	// compactPending is the compactor's pending-ops trigger. Pending grows
	// by about writeRate/2 a second (deletes of delta objects add none), so
	// the spatiald default (4096) would not fire inside a window.
	compactPending = 500
	// compactPoll is the compactor's poll cadence (spatiald's default is
	// 2s): a fast poll starts each compaction soon after the trigger, so
	// compactions land at the same points of every window.
	compactPoll = 200 * time.Millisecond
	// readRate is the reader's fixed pace (reads/s), well inside what the
	// 2-core machine serves beside the writer. A fixed pace keeps the
	// writes per read, and with them each read's share of the writer's
	// and compactor's work, the same however fast the host runs.
	readRate = 30
	// joinEvery makes every joinEvery-th read a join of the live table.
	joinEvery = 20
	// behindLag flags a run whose writer sent some write this late (the
	// 2-core machine delays a waking generator by up to ~40ms under
	// compaction); maxWriterLag marks the run failed: a writer that far
	// behind no longer offers the fixed rate, however it catches up.
	behindLag        = 100 * time.Millisecond
	maxWriterLag     = time.Second
	ingestColdCycles = 40
)

// writeOp is one insert or delete of the open-loop writer.
type writeOp struct {
	insert             bool
	blob               int      // insert: index into inputs.inserts
	target             *writeOp // delete: the insert it removes
	deletedBy          *writeOp // insert: the delete that removes it
	id                 uint64   // insert: acked stable id
	due, sentAt, ackAt time.Time
	acked              bool
}

// readOp is one reader query, kept for the post-run bounds check.
type readOp struct {
	q      int // query index; -1 for the join
	t0, t1 time.Time
	count  int
}

type ingestDep struct {
	in        *inputs
	dir       string
	mgr       *ingest.Manager
	srv       *server.Server
	wc, rc    *client // writer and reader connections
	prismPath string

	mu         sync.Mutex
	writes     []*writeOp
	reads      []readOp
	acked      []*writeOp // acked inserts not yet targeted by a delete, oldest first
	steady     bool       // the backlog was reached: writes alternate from here on
	toggle     bool
	nextBlob   int
	lags       []float64 // send time minus due time (ms)
	pendingMax int
}

func setupIngest(in *inputs, dir string) (deployment, error) {
	sets, err := generate()
	if err != nil {
		return nil, err
	}
	liveDir := filepath.Join(dir, "live")
	if err := os.MkdirAll(liveDir, 0o755); err != nil {
		return nil, err
	}
	// The live table's base generation is the WATER snapshot.
	if _, err := store.Save(filepath.Join(liveDir, liveTable+".snap"), sets["water"], store.SaveOptions{Tool: "perfbench"}); err != nil {
		return nil, err
	}
	paths, err := saveLayers(dir, map[string]*data.Dataset{"prism": sets["prism"]})
	if err != nil {
		return nil, err
	}
	d := &ingestDep{in: in, dir: dir, prismPath: paths["prism"]}
	d.mgr = ingest.NewManager(ingest.Options{Dir: liveDir, CompactPending: compactPending, Interval: compactPoll})
	cfg := serverConfig()
	cfg.Ingest = d.mgr
	if d.srv, err = startServer(cfg); err != nil {
		d.mgr.Close()
		return nil, err
	}
	cs, err := dialN(d.srv.Addr().String(), 2)
	if err != nil {
		stopServer(d.srv)
		d.mgr.Close()
		return nil, err
	}
	d.wc, d.rc = cs[0], cs[1]
	if _, err := d.rc.mustOK("live " + liveTable); err != nil {
		d.close(newRecorder())
		return nil, err
	}
	if _, err := loadLayers(d.rc, []string{"prism"}, paths); err != nil {
		d.close(newRecorder())
		return nil, err
	}
	for k := 0; k < 2*joinEvery; k++ {
		_, why, err := d.read(k)
		if err == nil && why != "" {
			err = fmt.Errorf("warm-up: %s", why)
		}
		if err != nil {
			d.close(newRecorder())
			return nil, err
		}
	}
	return d, nil
}

func (d *ingestDep) table() (*ingest.Table, error) {
	t, ok := d.mgr.Get(liveTable)
	if !ok {
		return nil, errors.New("live table not open")
	}
	return t, nil
}

// read runs the reader's k-th query and logs an ok reply for the bounds
// check; why is the failure reason of a non-ok reply.
func (d *ingestDep) read(k int) (rp reply, why string, err error) {
	q, verb, line := -1, "join", "join "+liveTable+" prism"
	if k%joinEvery != joinEvery-1 {
		q = k % numQueries
		verb, line = "select", selectLine(liveTable, d.in.queryWKT[q])
	}
	t0 := time.Now()
	rp, err = d.rc.do(line)
	t1 := time.Now()
	if err != nil {
		return rp, "", err
	}
	n, ok := resultCount(rp, verb)
	switch {
	case !rp.ok():
		return rp, verb + " " + rp.status, nil
	case !ok:
		return rp, verb + " without a summary line", nil
	}
	d.mu.Lock()
	d.reads = append(d.reads, readOp{q: q, t0: t0, t1: t1, count: n})
	d.mu.Unlock()
	return rp, "", nil
}

// nextWrite picks the writer's next operation: inserts until the acked
// backlog exists, then alternating deletes of the oldest acked insert.
func (d *ingestDep) nextWrite(due time.Time) (*writeOp, string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	w := &writeOp{due: due}
	if !d.steady && len(d.acked) >= backlog {
		d.steady = true
	}
	if d.steady {
		d.toggle = !d.toggle
	}
	if d.toggle && len(d.acked) > 0 {
		w.target = d.acked[0]
		d.acked = d.acked[1:]
		w.target.deletedBy = w
		d.writes = append(d.writes, w)
		return w, fmt.Sprintf("delete %s %d", liveTable, w.target.id)
	}
	w.insert = true
	w.blob = d.nextBlob % numInserts
	d.nextBlob++
	d.writes = append(d.writes, w)
	return w, "insert " + liveTable + " " + d.in.insertWKT[w.blob]
}

// acknowledge records a write's reply.
func (d *ingestDep) acknowledge(w *writeOp, rp reply, at time.Time, rec *recorder) {
	kind := "delete"
	if w.insert {
		kind = "insert"
	}
	if !rp.ok() {
		rec.observe(kind, 0, kind+" "+rp.status)
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if w.insert {
		id, ok := insertedID(rp)
		if !ok {
			rec.observe(kind, 0, "insert reply without id")
			return
		}
		w.id = id
		d.acked = append(d.acked, w)
	}
	w.acked, w.ackAt = true, at
	rec.observe(kind, at.Sub(w.due), "")
}

// exchange sends one write and waits for its reply (cold phase and
// probes, while the open-loop writer is idle).
func (d *ingestDep) exchange(w *writeOp, line string, rec *recorder) error {
	if err := d.wc.send(line); err != nil {
		return err
	}
	rp, err := d.wc.recv(w.sentAt)
	if err != nil {
		return err
	}
	d.acknowledge(w, rp, time.Now(), rec)
	return nil
}

// writeSync runs the writer's next operation synchronously.
func (d *ingestDep) writeSync(rec *recorder) error {
	now := time.Now()
	w, line := d.nextWrite(now)
	w.sentAt = now
	return d.exchange(w, line, rec)
}

// cold times the first join of the live table after a durable insert of
// the fixed cold blob, then deletes that blob again: every cycle starts
// from the same delta and reads the same data, whatever the seed. The
// join reads the whole delta, so each cycle pays the rebuild of the view
// the insert invalidated.
func (d *ingestDep) cold(until time.Time, rec *recorder, cold *costs) error {
	return coldCycles(until, ingestColdCycles, func(int) error {
		now := time.Now()
		ins := &writeOp{insert: true, blob: coldBlob, due: now, sentAt: now}
		d.mu.Lock()
		d.writes = append(d.writes, ins)
		d.mu.Unlock()
		if err := d.exchange(ins, "insert "+liveTable+" "+d.in.insertWKT[coldBlob], rec); err != nil {
			return err
		}
		cpu0 := cpuTime()
		rp, why, err := d.read(joinEvery - 1)
		if err != nil {
			return err
		}
		rec.observe("cold_join", rp.total, why)
		if why == "" {
			cold.add(cost{wall: ms(rp.total), cpu: ms(cpuTime() - cpu0)})
		}
		if !ins.acked {
			return nil
		}
		now = time.Now()
		del := &writeOp{target: ins, due: now, sentAt: now}
		d.mu.Lock()
		d.acked = d.acked[:len(d.acked)-1] // ins, the only acked insert of the cycle
		ins.deletedBy = del
		d.writes = append(d.writes, del)
		d.mu.Unlock()
		return d.exchange(del, fmt.Sprintf("delete %s %d", liveTable, ins.id), rec)
	})
}

// loop runs the open-loop writer beside the paced reader: the reader sends
// its k-th read at start + k/readRate, or when the previous reply arrives
// if that is later.
func (d *ingestDep) loop(until time.Time, rec *recorder, tr *tracer) error {
	t, err := d.table()
	if err != nil {
		return err
	}
	start, cpu0 := time.Now(), cpuTime()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var werr, rerr error
	wg.Add(3)
	go func() {
		defer wg.Done()
		werr = d.writer(start, until, rec)
	}()
	go func() {
		defer wg.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				p := t.Pending()
				d.mu.Lock()
				d.pendingMax = max(d.pendingMax, p)
				d.mu.Unlock()
			}
		}
	}()
	go func() {
		defer wg.Done()
		defer close(stop)
		for k := 0; ; k++ {
			due := start.Add(time.Duration(k) * time.Second / readRate)
			if !due.Before(until) {
				break
			}
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
			req := reqSeq.Add(1)
			kind := "select"
			if k%joinEvery == joinEvery-1 {
				kind = "join"
			}
			id := tr.begin("wire."+kind, -1, req)
			rp, why, err := d.read(k)
			tr.end(id)
			if err != nil {
				rerr = err
				return
			}
			rec.lined(len(rp.lines) + 1)
			rec.observe(kind, rp.total, why)
		}
	}()
	wg.Wait()
	rec.addLoop(start, cpu0)
	return errors.Join(werr, rerr)
}

// writer is the open loop: the k-th write is due at start + k/writeRate
// and is sent then (or as soon as the generator can), pipelined on its
// own connection; a receiver goroutine matches replies in order. Write
// latency runs from the due time, so a stall charges every write queued
// behind it.
func (d *ingestDep) writer(start, until time.Time, rec *recorder) error {
	period := time.Second / writeRate
	// Sized for a full window of writes at writeRate, so the generator
	// never blocks on the hand-off.
	inflight := make(chan *writeOp, 1<<16)
	var recvErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		for w := range inflight {
			if recvErr != nil {
				continue
			}
			rp, err := d.wc.recv(w.sentAt)
			if err != nil {
				recvErr = err
				continue
			}
			d.acknowledge(w, rp, time.Now(), rec)
		}
	}()
	var sendErr error
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * period)
		if !due.Before(until) {
			break
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		w, line := d.nextWrite(due)
		w.sentAt = time.Now()
		d.mu.Lock()
		d.lags = append(d.lags, ms(w.sentAt.Sub(due)))
		d.mu.Unlock()
		inflight <- w
		if sendErr = d.wc.send(line); sendErr != nil {
			break
		}
	}
	close(inflight)
	<-done
	return errors.Join(sendErr, recvErr)
}

func (d *ingestDep) detail(rec *recorder, out map[string]any) {
	sel := rec.samples("select")
	joins := rec.samples("join")
	writes := rec.samples("insert", "delete")
	out["select_p50_ms"] = median(sel)
	out["select_p99_ms"] = quantile(sel, 0.99)
	out["select_samples"] = len(sel)
	out["join_p50_ms"] = median(joins)
	out["join_p90_ms"] = quantile(joins, 0.9)
	out["join_samples"] = len(joins)
	out["write_p50_ms"] = median(writes)
	out["write_p99_ms"] = quantile(writes, 0.99)
	out["write_samples"] = len(writes)
	d.mu.Lock()
	lagMax := d.lagMax()
	out["writer_lag_p99_ms"] = quantile(d.lags, 0.99)
	out["writer_lag_max_ms"] = lagMax
	out["writer_behind"] = lagMax > ms(behindLag)
	out["pending_max"] = d.pendingMax
	d.mu.Unlock()
	if t, err := d.table(); err == nil {
		st := t.Stats()
		out["compactions"] = st.Compactions
		out["wal_mean_batch"] = st.WAL.MeanBatch()
	}
}

func (d *ingestDep) probe(tr *tracer, m metrics) error {
	a, ca := acc{}, &coreAgg{}
	eng := &shellcmd.Engine{Store: d.srv.Catalog(), Live: d.mgr}
	t, err := d.table()
	if err != nil {
		return err
	}
	ctx := context.Background()
	rec := newRecorder()
	for i := 0; i < 16; i++ {
		// A durable write, then the view and select it invalidated.
		if err := d.writeSync(rec); err != nil {
			return err
		}
		req := reqSeq.Add(1)
		wkt := d.in.insertWKT[i%numInserts]
		tr.timed("geom.wkt_parse", -1, req, func() { geom.ParsePolygonWKT(wkt) })
		var v *query.View
		tr.timed("ingest.view", -1, req, func() { v = t.View() })
		q := d.in.queries[i%numQueries]
		a.add("query.delta_rebuild_ms", lazyBuild(tr, "query.select.delta", func() {
			selectView(ctx, v, q)
		}))
		qw := d.in.queryWKT[i%numQueries]
		if err := probeSelect(tr, d.rc, eng, t.View(), selectLine(liveTable, qw), qw, a, ca); err != nil {
			return err
		}
	}
	if rec.failed > 0 {
		return fmt.Errorf("probe writes failed: %v", rec.reasons)
	}
	st := t.Stats()
	m["wal.mean_batch"] = st.WAL.MeanBatch()
	m["wal.bytes_per_write"] = float64(st.WAL.Bytes) / math.Max(1, float64(st.WAL.Records))
	m["ingest.compactions"] = float64(st.Compactions)
	m["ingest.compact_ms"] = st.CompactMS / math.Max(1, float64(st.Compactions))
	d.mu.Lock()
	m["ingest.pending_max"] = float64(d.pendingMax)
	m["ingest.writer_lag_p99_ms"] = quantile(d.lags, 0.99)
	d.mu.Unlock()
	if err := probeStore(tr, d.in, filepath.Join(d.dir, "probe"), a); err != nil {
		return err
	}
	a.into(m)
	ca.into(m)
	spanMedians(tr, m)
	return nil
}

// close shuts the server and the WALs down, then checks the run's
// answers: every read fell inside the bounds its concurrent writes
// allow, and the table reopened from disk holds exactly the base
// objects plus the acked inserts minus the acked deletes.
func (d *ingestDep) close(rec *recorder) error {
	d.wc.close()
	d.rc.close()
	err := stopServer(d.srv)
	if cerr := d.mgr.Close(); cerr != nil {
		return errors.Join(err, cerr)
	}
	if err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.lagMax() > ms(maxWriterLag) {
		rec.fail("writer fell behind schedule")
	}
	d.checkReads(rec)
	return d.checkDurable(rec)
}

func (d *ingestDep) lagMax() float64 {
	m := 0.0
	for _, l := range d.lags {
		m = math.Max(m, l)
	}
	return m
}

// checkReads bounds each read's count: an insert acked before the read
// was sent and not deleted by a delete sent before the reply is surely
// visible; one sent before the reply and not deleted by a delete acked
// before the read was sent may be.
func (d *ingestDep) checkReads(rec *recorder) {
	o := d.in.oracle
	for _, r := range d.reads {
		base := len(o.joinPairs["water prism"])
		if r.q >= 0 {
			base = len(o.selectIDs["water"][r.q])
		}
		lo, hi := base, base
		for _, w := range d.writes {
			if !w.insert {
				continue
			}
			weight := o.insertPrismPairs[w.blob]
			if r.q >= 0 {
				weight = 0
				if o.insertHitsQuery[w.blob][r.q] {
					weight = 1
				}
			}
			if weight == 0 {
				continue
			}
			del := w.deletedBy
			if w.acked && w.ackAt.Before(r.t0) && (del == nil || !del.sentAt.Before(r.t1)) {
				lo += weight
			}
			if !w.sentAt.IsZero() && w.sentAt.Before(r.t1) && (del == nil || !del.acked || !del.ackAt.Before(r.t0)) {
				hi += weight
			}
		}
		if r.count < lo || r.count > hi {
			rec.fail(fmt.Sprintf("live read outside [%d, %d]", lo, hi))
		}
	}
}

// checkDurable reopens the table from disk and compares its objects, as
// a multiset of vertex lists, with what the acked writes imply.
func (d *ingestDep) checkDurable(rec *recorder) error {
	t, err := ingest.OpenTable(filepath.Join(d.dir, "live"), liveTable, ingest.TableOptions{})
	if err != nil {
		return fmt.Errorf("reopen live table: %w", err)
	}
	defer t.Close()
	want := map[uint64]int{}
	for _, p := range d.in.sets["water"].Objects {
		want[polyKey(p)]++
	}
	for _, w := range d.writes {
		if !w.insert {
			continue
		}
		if !w.acked {
			rec.fail("insert never acked")
			continue
		}
		if w.deletedBy == nil || !w.deletedBy.acked {
			want[polyKey(d.in.inserts[w.blob])]++
		}
	}
	for _, p := range t.View().Dataset().Objects {
		want[polyKey(p)]--
	}
	for _, n := range want {
		if n != 0 {
			rec.fail("reopened table differs from acked writes")
			break
		}
	}
	return nil
}

func polyKey(p *geom.Polygon) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range p.Verts {
		for _, f := range []float64{v.X, v.Y} {
			u := math.Float64bits(f)
			for i := range b {
				b[i] = byte(u >> (8 * i))
			}
			h.Write(b[:])
		}
	}
	return h.Sum64()
}
