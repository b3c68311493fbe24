package shellcmd

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/partition"
)

func mustExec(t *testing.T, e *Engine, line string) string {
	t.Helper()
	var out bytes.Buffer
	if _, err := e.Exec(context.Background(), line, &out); err != nil {
		t.Fatalf("%s: %v", line, err)
	}
	return out.String()
}

// dataLines filters a shard response to lines with the given prefix word.
func dataLines(out, word string) []string {
	var got []string
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, word+" ") {
			got = append(got, l)
		}
	}
	sort.Strings(got)
	return got
}

// TestShardJoinWholePlaneMatchesJoin pins the reference-point rule's base
// case: one shard owning the whole plane emits exactly the single-node
// join's pair set.
func TestShardJoinWholePlaneMatchesJoin(t *testing.T) {
	e := &Engine{Store: MapStore{}}
	mustExec(t, e, "gen a LANDC 0.01")
	mustExec(t, e, "gen b LANDO 0.01")
	whole := FormatRect(geom.Rect{MinX: math.Inf(-1), MinY: math.Inf(-1), MaxX: math.Inf(1), MaxY: math.Inf(1)})
	out := mustExec(t, e, "shardjoin a b "+whole)
	pairs := dataLines(out, "pair")

	var joinOut bytes.Buffer
	res, err := e.Exec(context.Background(), "join a b", &joinOut)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != res.Stats.Results {
		t.Fatalf("whole-plane shardjoin emitted %d pairs, single-node join found %d", len(pairs), res.Stats.Results)
	}
	if len(dataLines(out, "stats")) != 1 {
		t.Fatalf("shardjoin must emit exactly one stats line:\n%s", out)
	}
}

// TestShardJoinRegionsPartitionPairs pins the dedup invariant the
// coordinator relies on: over any tiling of the plane, every pair is
// emitted by exactly one region.
func TestShardJoinRegionsPartitionPairs(t *testing.T) {
	e := &Engine{Store: MapStore{}}
	mustExec(t, e, "gen a LANDC 0.01")
	mustExec(t, e, "gen b LANDO 0.01")
	m := &partition.Manifest{Bounds: geom.R(0, 0, 60, 60), GX: 2, GY: 2}
	counts := map[string]int{}
	for id := 0; id < m.NumTiles(); id++ {
		out := mustExec(t, e, fmt.Sprintf("shardjoin a b %s", FormatRect(m.Region(id))))
		for _, p := range dataLines(out, "pair") {
			counts[p]++
		}
	}
	var joinOut bytes.Buffer
	res, err := e.Exec(context.Background(), "join a b", &joinOut)
	if err != nil {
		t.Fatal(err)
	}
	if len(counts) != res.Stats.Results {
		t.Fatalf("union over regions has %d distinct pairs, join found %d", len(counts), res.Stats.Results)
	}
	for p, n := range counts {
		if n != 1 {
			t.Fatalf("pair %q emitted by %d regions, want exactly 1", p, n)
		}
	}
}

// TestShardSelectStableIDs verifies shardselect reports the global ids
// persisted in a tile snapshot, not tile-local indexes.
func TestShardSelectStableIDs(t *testing.T) {
	e := &Engine{Store: MapStore{}}
	mustExec(t, e, "gen base LANDC 0.01")
	dir := t.TempDir()
	mustExec(t, e, fmt.Sprintf("partition base 4 %s", dir))
	m, err := partition.Load(dir)
	if err != nil {
		t.Fatal(err)
	}

	wkt := "POLYGON((10 10, 40 10, 40 40, 10 40, 10 10))"
	want := dataLines(mustExec(t, e, "shardselect base "+wkt), "id")

	// Union of per-tile selects, deduplicated, must equal the single-node
	// ids (selects need no reference point — the coordinator dedups).
	got := map[string]bool{}
	for _, tile := range m.Tiles {
		name := fmt.Sprintf("t%d", tile.ID)
		mustExec(t, e, fmt.Sprintf("load %s %s", name,
			filepath.Join(dir, tile.Dir, partition.SnapshotName("base"))))
		for _, l := range dataLines(mustExec(t, e, fmt.Sprintf("shardselect %s %s", name, wkt)), "id") {
			got[l] = true
		}
	}
	if len(got) != len(want) {
		t.Fatalf("tile union has %d ids, single-node select has %d", len(got), len(want))
	}
	for _, l := range want {
		if !got[l] {
			t.Fatalf("single-node id %q missing from tile union", l)
		}
	}
}

// TestSelectVerbsHonourIntervalsOff: the session's `intervals off` reaches
// both selection verbs, which then consult no interval spans.
func TestSelectVerbsHonourIntervalsOff(t *testing.T) {
	e := &Engine{Store: MapStore{}}
	mustExec(t, e, "gen base LANDC 0.01")
	wkt := "POLYGON((10 10, 40 10, 40 40, 10 40, 10 10))"
	for _, verb := range []string{"select", "shardselect"} {
		mustExec(t, e, "intervals on")
		_, on := exec(t, e, verb+" base "+wkt)
		if on.Stats.IntervalChecks == 0 {
			t.Fatalf("%s with intervals on made no interval checks; the test is vacuous", verb)
		}
		mustExec(t, e, "intervals off")
		_, off := exec(t, e, verb+" base "+wkt)
		if off.Stats.IntervalChecks != 0 {
			t.Errorf("%s after `intervals off`: IntervalChecks = %d, want 0", verb, off.Stats.IntervalChecks)
		}
		if off.Stats.Results != on.Stats.Results {
			t.Errorf("%s: %d results with intervals off, %d with them on", verb, off.Stats.Results, on.Stats.Results)
		}
	}
}

func TestShardVerbsAreQueries(t *testing.T) {
	for _, v := range []string{"shardjoin", "shardwithin", "shardselect"} {
		if !IsQuery(v) {
			t.Errorf("IsQuery(%q) = false; shard verbs must pass admission control", v)
		}
	}
	if IsQuery("partition") {
		t.Error("partition is administrative, not a query")
	}
}
