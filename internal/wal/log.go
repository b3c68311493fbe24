package wal

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/faultinject"
	"repro/internal/geom"
)

// flushBytes is the size trigger: once the pending batch reaches this
// many encoded bytes the committer flushes without waiting out the
// latency trigger (FlushDelay).
const flushBytes = 256 << 10

// Options configures a Log. The zero value is usable: defaults below.
type Options struct {
	// SegmentBytes rotates to a fresh segment once the active one grows
	// past this size (checked at batch boundaries, so a segment can
	// overshoot by one batch). 0 = 4 MiB.
	SegmentBytes int64
	// FlushDelay is the latency trigger: how long the committer waits for
	// more appends to join a batch before fsyncing. 0 commits as soon as
	// the committer wakes — concurrent appends still batch naturally
	// behind an in-flight fsync.
	FlushDelay time.Duration
	// Faults arms crash/short-write/io-error injection at the wal.* sites.
	Faults *faultinject.Injector
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	return o
}

// Stats is a point-in-time snapshot of the log's counters.
type Stats struct {
	Appends    int64  // records accepted by Append
	Records    int64  // records durably committed
	Batches    int64  // fsync batches (group commits)
	Bytes      int64  // record bytes written
	Rotations  int64  // segments opened after the first
	Segments   int    // live segment files
	Truncated  int64  // segments removed by TruncateThrough
	TornBytes  int64  // bytes discarded by torn-tail repair at Open
	Recovered  int64  // records recovered at Open
	DurableLSN uint64 // highest fsynced LSN (0 = none)
	NextLSN    uint64 // next LSN Append will assign
}

// MeanBatch returns the average records per group commit (0 when none).
func (s Stats) MeanBatch() float64 {
	if s.Batches == 0 {
		return 0
	}
	return float64(s.Records) / float64(s.Batches)
}

// ErrClosed is returned by Append and Sync after Close.
var ErrClosed = errors.New("wal: log closed")

type segInfo struct {
	index int
	base  uint64 // LSN of the segment's first record
	path  string
}

type batch struct {
	done chan struct{}
	err  error // written before done closes; read after
}

// Ack is a durability ticket for one appended record: Wait blocks until
// the record's group commit fsyncs (nil) or fails (the poisoning error).
type Ack struct {
	LSN uint64
	b   *batch
}

// Wait blocks for the record's durability. A ctx expiry abandons the
// wait, not the write: the record may still commit afterwards.
func (a *Ack) Wait(ctx context.Context) error {
	select {
	case <-a.b.done:
		return a.b.err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Log is a group-committed write-ahead log over a directory of segment
// files. Safe for concurrent appenders; one internal committer goroutine
// performs all file I/O.
type Log struct {
	dir string
	opt Options

	mu          sync.Mutex
	nextLSN     uint64
	durableLSN  uint64
	pending     []byte // encoded records awaiting commit
	pendingRecs int64
	pendingLSN  uint64 // LSN of pending's first record
	curBatch    *batch
	err         error // poisoned: set on write/fsync failure, never cleared
	closed      bool
	segs        []segInfo
	lastIndex   int

	f       *os.File // active segment (committer-owned after Open)
	segSize int64

	kick chan struct{} // something is pending
	big  chan struct{} // size trigger crossed
	quit chan struct{}
	done chan struct{}

	stats struct {
		appends, records, batches, bytes, rotations, truncated int64
		tornBytes, recovered                                   int64
	}
}

// Open recovers the log in dir (created if missing) and returns every
// durable record in LSN order; the caller replays the suffix its own
// state has not yet applied. A torn tail on the last segment is
// truncated away (those bytes were never acked); a last segment whose
// header never became durable is deleted (rotation fsyncs the header
// before any record is written, so such a file holds nothing acked).
// Damage anywhere else is a *CorruptError.
func Open(dir string, opt Options) (*Log, []Record, error) {
	opt = opt.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: create dir: %w", err)
	}
	names, err := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if err != nil {
		return nil, nil, fmt.Errorf("wal: list segments: %w", err)
	}
	sort.Strings(names)

	l := &Log{
		dir:  dir,
		opt:  opt,
		kick: make(chan struct{}, 1),
		big:  make(chan struct{}, 1),
		quit: make(chan struct{}),
		done: make(chan struct{}),
	}

	var recs []Record
	next := uint64(0)
	for i, path := range names {
		last := i == len(names)-1
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, fmt.Errorf("wal: read %s: %w", path, err)
		}
		base, segRecs, good, res := scanSegment(b)
		if res == scanBadHeader {
			if !last {
				return nil, nil, &CorruptError{Path: path, Off: 0, Msg: "bad segment header"}
			}
			// Crash mid-rotation: the header never became durable, so no
			// record in this file was ever acked. Remove and move on.
			if err := os.Remove(path); err != nil {
				return nil, nil, fmt.Errorf("wal: remove torn segment %s: %w", path, err)
			}
			if err := syncDir(dir); err != nil {
				return nil, nil, err
			}
			l.stats.tornBytes += int64(len(b))
			continue
		}
		if next != 0 && base != next {
			return nil, nil, &CorruptError{Path: path, Off: 16,
				Msg: fmt.Sprintf("segment chain broken: base LSN %d, expected %d", base, next)}
		}
		if next == 0 {
			next = base
		}
		for _, r := range segRecs {
			if r.LSN != next {
				return nil, nil, &CorruptError{Path: path, Off: int64(good),
					Msg: fmt.Sprintf("LSN %d out of sequence, expected %d", r.LSN, next)}
			}
			next++
		}
		if res == scanTorn {
			if !last {
				return nil, nil, &CorruptError{Path: path, Off: int64(good), Msg: "invalid record mid-log"}
			}
			if err := truncateFile(path, int64(good)); err != nil {
				return nil, nil, err
			}
			l.stats.tornBytes += int64(len(b) - good)
		}
		recs = append(recs, segRecs...)
		idx := segIndex(path)
		l.segs = append(l.segs, segInfo{index: idx, base: base, path: path})
		if idx > l.lastIndex {
			l.lastIndex = idx
		}
	}
	if next == 0 {
		next = 1 // LSN 0 is reserved for "nothing applied"
	}
	l.nextLSN = next
	if len(recs) > 0 {
		l.durableLSN = recs[len(recs)-1].LSN
	}
	l.stats.recovered = int64(len(recs))

	if len(l.segs) == 0 {
		if err := l.openFreshSegment(next); err != nil {
			return nil, nil, err
		}
	} else {
		active := l.segs[len(l.segs)-1]
		f, err := os.OpenFile(active.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, nil, fmt.Errorf("wal: open %s: %w", active.path, err)
		}
		size, err := f.Seek(0, 2)
		if err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("wal: seek %s: %w", active.path, err)
		}
		l.f, l.segSize = f, size
	}

	go l.run()
	return l, recs, nil
}

// Dir returns the log's segment directory.
func (l *Log) Dir() string { return l.dir }

// Append encodes one mutation, assigns it the next LSN, and enqueues it
// for group commit. The returned Ack resolves when the record is durable.
// LSN order equals call order for callers that serialize their Appends
// (the ingest table appends under its mutation lock, which is what makes
// recovery replay order equal in-memory apply order).
func (l *Log) Append(op Op, id uint64, verts []geom.Point) (*Ack, error) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil, ErrClosed
	}
	if l.err != nil {
		err := l.err
		l.mu.Unlock()
		return nil, err
	}
	lsn := l.nextLSN
	l.nextLSN++
	if len(l.pending) == 0 {
		l.pendingLSN = lsn
	}
	l.pending = appendRecord(l.pending, Record{LSN: lsn, Op: op, ID: id, Verts: verts})
	l.pendingRecs++
	if l.curBatch == nil {
		l.curBatch = &batch{done: make(chan struct{})}
	}
	b := l.curBatch
	l.stats.appends++
	big := len(l.pending) >= flushBytes
	l.mu.Unlock()

	select {
	case l.kick <- struct{}{}:
	default:
	}
	if big {
		select {
		case l.big <- struct{}{}:
		default:
		}
	}
	return &Ack{LSN: lsn, b: b}, nil
}

// Sync forces everything pending to commit and waits for it.
func (l *Log) Sync(ctx context.Context) error {
	l.mu.Lock()
	if l.err != nil {
		err := l.err
		l.mu.Unlock()
		return err
	}
	b := l.curBatch
	l.mu.Unlock()
	if b == nil {
		return nil
	}
	select {
	case l.kick <- struct{}{}:
	default:
	}
	select {
	case l.big <- struct{}{}:
	default:
	}
	select {
	case <-b.done:
		return b.err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// TruncateThrough removes whole segments whose records all have
// LSN ≤ lsn; the active segment is never removed. Safe to call while
// appends continue: the compactor calls this only after the records are
// folded into a durable snapshot.
func (l *Log) TruncateThrough(lsn uint64) (removed int, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(l.segs) > 1 && l.segs[1].base <= lsn+1 {
		path := l.segs[0].path
		if err := os.Remove(path); err != nil {
			return removed, fmt.Errorf("wal: truncate %s: %w", path, err)
		}
		l.segs = l.segs[1:]
		removed++
	}
	if removed > 0 {
		l.stats.truncated += int64(removed)
		if err := syncDir(l.dir); err != nil {
			return removed, err
		}
	}
	return removed, nil
}

// Stats snapshots the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{
		Appends:    l.stats.appends,
		Records:    l.stats.records,
		Batches:    l.stats.batches,
		Bytes:      l.stats.bytes,
		Rotations:  l.stats.rotations,
		Segments:   len(l.segs),
		Truncated:  l.stats.truncated,
		TornBytes:  l.stats.tornBytes,
		Recovered:  l.stats.recovered,
		DurableLSN: l.durableLSN,
		NextLSN:    l.nextLSN,
	}
}

// Close drains pending records through one final commit, stops the
// committer, and closes the active segment. Records appended before
// Close are committed; Append afterwards returns ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	close(l.quit)
	<-l.done
	l.mu.Lock()
	err := l.err
	l.mu.Unlock()
	if cerr := l.f.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// run is the committer loop: wake on a kick, wait out the latency
// trigger (cut short by the size trigger), then commit whatever piled up.
func (l *Log) run() {
	defer close(l.done)
	for {
		select {
		case <-l.quit:
			l.commit()
			return
		case <-l.kick:
		}
		if d := l.opt.FlushDelay; d > 0 {
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-l.big:
				t.Stop()
			case <-l.quit:
				t.Stop()
				l.commit()
				return
			}
		}
		l.commit()
		// Drain stale triggers so the next batch gets a fresh delay.
		select {
		case <-l.big:
		default:
		}
	}
}

// commit takes the pending batch and writes+fsyncs it as one unit. The
// batch's waiters are released with the outcome; a failure poisons the
// log permanently (an acked record must never exist only in page cache).
func (l *Log) commit() {
	l.mu.Lock()
	buf, n, first, b := l.pending, l.pendingRecs, l.pendingLSN, l.curBatch
	poisoned := l.err
	l.pending, l.pendingRecs, l.curBatch = nil, 0, nil
	rotate := l.segSize >= l.opt.SegmentBytes
	l.mu.Unlock()
	if b == nil {
		return
	}
	var err error
	if poisoned != nil {
		err = poisoned
	} else {
		err = l.writeBatch(buf, first, rotate)
	}
	l.mu.Lock()
	if err != nil {
		if l.err == nil {
			l.err = err
		}
	} else {
		l.durableLSN = first + uint64(n) - 1
		l.stats.records += n
		l.stats.batches++
		l.stats.bytes += int64(len(buf))
	}
	l.mu.Unlock()
	b.err = err
	close(b.done)
}

// writeBatch appends buf to the active segment (rotating first when due)
// and fsyncs. The wal.* fault sites bracket each durability step.
func (l *Log) writeBatch(buf []byte, firstLSN uint64, rotate bool) error {
	if rotate {
		if err := l.rotate(firstLSN); err != nil {
			return err
		}
	}
	if f := l.fault(faultinject.SiteWALWrite); f.Any() {
		if f.Short {
			// Torn write: persist a prefix, then die or report failure —
			// either way nothing in this batch may be acked.
			l.f.Write(buf[:len(buf)/2])
			l.f.Sync()
			if f.Crash {
				faultinject.Crash()
			}
			return fmt.Errorf("wal: injected short write at %s", faultinject.SiteWALWrite)
		}
		if f.Crash {
			faultinject.Crash()
		}
		if f.Err {
			return fmt.Errorf("wal: injected write error at %s", faultinject.SiteWALWrite)
		}
	}
	if _, err := l.f.Write(buf); err != nil {
		return fmt.Errorf("wal: write batch: %w", err)
	}
	if f := l.fault(faultinject.SiteWALFsync); f.Any() {
		if f.Crash {
			faultinject.Crash()
		}
		if f.Err || f.Short {
			return fmt.Errorf("wal: injected fsync error at %s", faultinject.SiteWALFsync)
		}
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync batch: %w", err)
	}
	if f := l.fault(faultinject.SiteWALFsynced); f.Crash {
		faultinject.Crash()
	}
	l.mu.Lock()
	l.segSize += int64(len(buf))
	l.mu.Unlock()
	return nil
}

// rotate fsyncs and closes the active segment and opens the next one,
// with the fresh header made durable (file fsync + dir fsync) before any
// record lands in it — recovery relies on that ordering to classify a
// header-less last segment as holding nothing acked.
func (l *Log) rotate(baseLSN uint64) error {
	if f := l.fault(faultinject.SiteWALRotate); f.Any() {
		if f.Crash {
			faultinject.Crash()
		}
		return fmt.Errorf("wal: injected rotate error at %s", faultinject.SiteWALRotate)
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: close segment: %w", err)
	}
	if err := l.openFreshSegment(baseLSN); err != nil {
		return err
	}
	l.mu.Lock()
	l.stats.rotations++
	l.mu.Unlock()
	return nil
}

// openFreshSegment creates segment lastIndex+1 with a durable header.
func (l *Log) openFreshSegment(baseLSN uint64) error {
	l.mu.Lock()
	l.lastIndex++
	idx := l.lastIndex
	l.mu.Unlock()
	path := filepath.Join(l.dir, fmt.Sprintf("seg-%08d.wal", idx))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	if _, err := f.Write(encodeSegHeader(baseLSN)); err != nil {
		f.Close()
		return fmt.Errorf("wal: write segment header: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: sync segment header: %w", err)
	}
	if err := syncDir(l.dir); err != nil {
		f.Close()
		return err
	}
	l.mu.Lock()
	l.f, l.segSize = f, segHeaderSize
	l.segs = append(l.segs, segInfo{index: idx, base: baseLSN, path: path})
	l.mu.Unlock()
	return nil
}

func (l *Log) fault(site string) faultinject.IOFault {
	if l.opt.Faults == nil {
		return faultinject.IOFault{}
	}
	return l.opt.Faults.WriteFault(site)
}

// segIndex parses the numeric index out of a segment path (0 on mismatch).
func segIndex(path string) int {
	var idx int
	fmt.Sscanf(filepath.Base(path), "seg-%d.wal", &idx)
	return idx
}

// truncateFile truncates path to size and fsyncs the result.
func truncateFile(path string, size int64) error {
	if err := os.Truncate(path, size); err != nil {
		return fmt.Errorf("wal: truncate %s: %w", path, err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: reopen %s: %w", path, err)
	}
	defer f.Close()
	if err := f.Sync(); err != nil {
		return fmt.Errorf("wal: sync truncated %s: %w", path, err)
	}
	return nil
}

// syncDir fsyncs a directory so entry changes (create, rename, unlink)
// survive power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: open dir %s: %w", dir, err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: sync dir %s: %w", dir, err)
	}
	return nil
}
