package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Spans of one request share
// Req; Parent is the id of the span that caused this one (-1 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory for the traced run; the zero of off makes
// every call a no-op so untraced code paths pay one branch.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// begin opens a span and returns its id (-1 when tracing is off).
func (t *tracer) begin(name string, parent int, req int64) int {
	if !t.on {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now, End: -1})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// timed runs f inside a span and returns the span's duration.
func (t *tracer) timed(name string, parent int, req int64, f func()) time.Duration {
	id := t.begin(name, parent, req)
	start := time.Now()
	f()
	d := time.Since(start)
	t.end(id)
	return d
}

// durations returns the closed spans' durations by name, in ms.
func (t *tracer) durations() map[string][]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string][]float64{}
	for _, s := range t.spans {
		if s.End >= 0 {
			out[s.Name] = append(out[s.Name], float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// selfRow is one line of the per-layer self-time table.
type selfRow struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// selfTimes computes each span name's self time: its duration minus the
// part of its interval that its children's spans cover (overlapping
// children count once).
func (t *tracer) selfTimes() []selfRow {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	rows := map[string]*selfRow{}
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		covered := coveredNS(s, kids[s.ID])
		r := rows[s.Name]
		if r == nil {
			r = &selfRow{Name: s.Name}
			rows[s.Name] = r
		}
		r.Count++
		r.TotalMS += float64(s.End-s.Start) / 1e6
		r.SelfMS += float64(s.End-s.Start-covered) / 1e6
	}
	out := make([]selfRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMS > out[j].SelfMS })
	return out
}

// coveredNS is the length of the union of the children's intervals,
// clipped to the parent's.
func coveredNS(parent span, children []span) int64 {
	if len(children) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	curLo, curHi = -1, -1
	for _, v := range iv {
		if v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	return total + curHi - curLo
}

// printSelfTimes writes the self-time table.
func printSelfTimes(w io.Writer, rows []selfRow) {
	fmt.Fprintf(w, "%-28s %8s %12s %12s %12s\n", "span", "count", "total_ms", "self_ms", "self_ms/call")
	for _, r := range rows {
		fmt.Fprintf(w, "%-28s %8d %12.3f %12.3f %12.4f\n", r.Name, r.Count, r.TotalMS, r.SelfMS, r.SelfMS/float64(r.Count))
	}
}

// dump writes every span plus the self-time table as JSON.
func (t *tracer) dump(path string) error {
	rows := t.selfTimes()
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Spans []span    `json:"spans"`
		Self  []selfRow `json:"self_times"`
	}{t.spans, rows})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
