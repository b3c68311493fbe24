#!/bin/sh
# check.sh — the full local gate: vet, race-enabled tests, and a short
# fuzz smoke pass over the input parsers. Run from the repo root.
#
#   scripts/check.sh              # everything (~2-3 min)
#   FUZZTIME=30s scripts/check.sh # longer fuzz pass
set -eu

cd "$(dirname "$0")/.."
FUZZTIME="${FUZZTIME:-10s}"

echo "== go vet ./..."
go vet ./...

echo "== go vet perfbench (the benchmark module, compiled against this tree)"
# perfbench is its own module (replace repro => ../), so ./... skips it;
# vetting it here catches a renamed or re-typed name it compiles against.
# Offline and read-only: -mod=readonly writes no go.mod/go.sum.
(cd perfbench && GOWORK=off GOFLAGS=-mod=readonly go vet .)

echo "== go test -race ./..."
go test -race ./...

echo "== spatiald e2e (concurrent clients, drain, fault containment)"
go test -race -count 1 ./internal/server/ -run 'TestE2EConcurrentClients|TestShutdownDrainsPartialResults|TestFault'

echo "== spatiald chaos mini-soak (10s, randomized faults, -race)"
# Two phases of ~SOAKDUR each: benign faults must keep every completed
# result bit-identical; wrong-answer faults must trip the breaker via the
# sentinel while results stay exact. The seed is logged for replay.
SOAKDUR="${SOAKDUR:-10s}"
go test -race -count 1 ./internal/server/ -run TestSoak -soakdur "$SOAKDUR"

echo "== spatialbench -json smoke"
BENCH_JSON="$(mktemp /tmp/bench_smoke.XXXXXX.json)"
go run ./cmd/spatialbench -exp table2 -scale 0.02 -json "$BENCH_JSON" >/dev/null
grep -q '"experiment"' "$BENCH_JSON" || { echo "no records in $BENCH_JSON"; exit 1; }
rm -f "$BENCH_JSON"

echo "== benchdiff smoke (committed baseline vs current run)"
# Wall-clock deltas against a baseline recorded on another machine are
# noise, so this only warns by default; set STRICT_BENCH=1 to make
# regressions fatal (intended for same-machine baseline refreshes).
if [ -f BENCH_baseline.json ]; then
	if SCALE=0.01 scripts/benchdiff.sh BENCH_baseline.json; then
		:
	else
		echo "benchdiff: wall-clock regressions vs committed baseline (warn-only; STRICT_BENCH=1 to enforce)"
		if [ "${STRICT_BENCH:-0}" = "1" ]; then
			exit 1
		fi
	fi
else
	echo "benchdiff: no BENCH_baseline.json, skipping"
fi
if [ -f BENCH_pipeline.json ]; then
	if EXPERIMENTS=pipeline SCALE=0.01 scripts/benchdiff.sh BENCH_pipeline.json; then
		:
	else
		echo "benchdiff: pipeline wall/TTFR regressions vs committed baseline (warn-only; STRICT_BENCH=1 to enforce)"
		if [ "${STRICT_BENCH:-0}" = "1" ]; then
			exit 1
		fi
	fi
else
	echo "benchdiff: no BENCH_pipeline.json, skipping"
fi
if [ -f BENCH_intervals.json ]; then
	if EXPERIMENTS=intervals SCALE=0.01 scripts/benchdiff.sh BENCH_intervals.json; then
		:
	else
		echo "benchdiff: interval-sweep regressions vs committed baseline (warn-only; STRICT_BENCH=1 to enforce)"
		if [ "${STRICT_BENCH:-0}" = "1" ]; then
			exit 1
		fi
	fi
else
	echo "benchdiff: no BENCH_intervals.json, skipping"
fi

echo "== snapshot round-trip + corruption-rejection smoke"
# A layer saved as a binary snapshot must reload and join identically to
# the built layer, and a bit-flipped snapshot must be rejected with a
# typed error (never bound, never a panic).
SNAPDIR="$(mktemp -d /tmp/snap_smoke.XXXXXX)"
go run ./cmd/spatialdb -data "$SNAPDIR" >"$SNAPDIR/out.txt" <<'EOF'
gen s LANDC 0.005
save s s
load t s
join s t sw
layers
EOF
grep -q 'from snapshot' "$SNAPDIR/out.txt" || { echo "snapshot load missing"; cat "$SNAPDIR/out.txt"; exit 1; }
grep -q 'join: ' "$SNAPDIR/out.txt" || { echo "snapshot join missing"; cat "$SNAPDIR/out.txt"; exit 1; }
grep -q 'snapshot:LANDC' "$SNAPDIR/out.txt" || { echo "snapshot provenance missing"; cat "$SNAPDIR/out.txt"; exit 1; }
# Corrupt the coordinate payload (well past the 24B header + section
# table). Eight 0xFF bytes encode a NaN no valid snapshot can contain, so
# the payload is guaranteed to differ from what was written.
printf '\377\377\377\377\377\377\377\377' | dd of="$SNAPDIR/s.snap" bs=1 seek=4096 count=8 conv=notrunc 2>/dev/null
if echo "load bad s" | go run ./cmd/spatialdb -data "$SNAPDIR" | grep -q 'error:.*CRC'; then
	:
else
	echo "corrupted snapshot was not rejected with a CRC error"; exit 1
fi
rm -rf "$SNAPDIR"

echo "== interval filter smoke (v2 snapshot true hits, pre-v2 signature fallback parity)"
# A join over snapshot-loaded layers must engage the persisted interval
# column (nonzero true hits), and snapshots saved without the interval
# section (the pre-v2 format) must fall back to the v1 signature path
# with a line-identical pair set.
IVDIR="$(mktemp -d /tmp/ival_smoke.XXXXXX)"
go run ./cmd/spatialdb -data "$IVDIR" >"$IVDIR/v2.txt" <<'EOF'
gen a LANDC 0.01
gen b LANDO 0.01
save a a
save b b
load sa a
load sb b
join sa sb sw
shardjoin sa sb -Inf -Inf +Inf +Inf
EOF
grep -q 'from snapshot' "$IVDIR/v2.txt" || { echo "interval smoke: snapshot load missing"; cat "$IVDIR/v2.txt"; exit 1; }
grep -q 'interval_true_hits=[1-9]' "$IVDIR/v2.txt" || { echo "snapshot join reported no interval true hits"; cat "$IVDIR/v2.txt"; exit 1; }
go run ./cmd/spatialdb -data "$IVDIR" >"$IVDIR/v1.txt" <<'EOF'
gen a LANDC 0.01
gen b LANDO 0.01
save a a1 nointervals
save b b1 nointervals
load sa a1
load sb b1
join sa sb sw
shardjoin sa sb -Inf -Inf +Inf +Inf
EOF
if grep -q 'interval_checks=' "$IVDIR/v1.txt"; then
	echo "pre-v2 snapshot still engaged the interval filter"; cat "$IVDIR/v1.txt"; exit 1
fi
grep -oE 'pair [0-9]+ [0-9]+' "$IVDIR/v2.txt" | sort >"$IVDIR/v2.pairs"
grep -oE 'pair [0-9]+ [0-9]+' "$IVDIR/v1.txt" | sort >"$IVDIR/v1.pairs"
[ -s "$IVDIR/v2.pairs" ] || { echo "interval smoke join produced no pairs"; cat "$IVDIR/v2.txt"; exit 1; }
cmp -s "$IVDIR/v2.pairs" "$IVDIR/v1.pairs" || {
	echo "interval filter changed the join answer vs the v1 signature path"
	diff "$IVDIR/v2.pairs" "$IVDIR/v1.pairs" | head -10
	exit 1
}
# The session knob must ablate the filter without changing the answer.
go run ./cmd/spatialdb -data "$IVDIR" >"$IVDIR/off.txt" <<'EOF'
load sa a
load sb b
intervals off
join sa sb sw
EOF
grep -q 'intervals off' "$IVDIR/off.txt" || { echo "intervals off verb failed"; cat "$IVDIR/off.txt"; exit 1; }
if grep -q 'interval_checks=' "$IVDIR/off.txt"; then
	echo "intervals off still engaged the interval filter"; cat "$IVDIR/off.txt"; exit 1
fi
rm -rf "$IVDIR"

echo "== crash-recovery smoke (WAL crash injection, restart, verify)"
# Ingest under an injected crash at the second WAL fsync, then restart
# over the same directory: every acknowledged insert must survive, and a
# live-view select must see exactly the recovered objects. The binary is
# built (not `go run`) so the injected crash's exit code 86 is observable.
INGDIR="$(mktemp -d /tmp/ingest_smoke.XXXXXX)"
go build -o "$INGDIR/spatialdb" ./cmd/spatialdb
set +e
"$INGDIR/spatialdb" -ingest "$INGDIR/wal" -faultseed 1 -faultspec 'wal.fsync=crash:1@1' >"$INGDIR/crash.txt" 2>/dev/null <<'EOF'
live fleet
insert fleet POLYGON ((0 0, 1 0, 1 1, 0 1))
insert fleet POLYGON ((2 0, 3 0, 3 1, 2 1))
insert fleet POLYGON ((4 0, 5 0, 5 1, 4 1))
EOF
rc=$?
set -e
[ "$rc" -eq 86 ] || { echo "injected crash did not fire (exit $rc)"; cat "$INGDIR/crash.txt"; exit 1; }
ACKED="$(grep -c 'inserted id' "$INGDIR/crash.txt" || true)"
[ "$ACKED" -ge 1 ] || { echo "no insert was acknowledged before the crash"; cat "$INGDIR/crash.txt"; exit 1; }
"$INGDIR/spatialdb" -ingest "$INGDIR/wal" >"$INGDIR/recover.txt" <<'EOF'
live fleet
select fleet POLYGON ((-1 -1, 9 -1, 9 2, -1 2))
quit
EOF
RECOVERED="$(sed -n 's/.*live table "fleet": \([0-9]*\) objects.*/\1/p' "$INGDIR/recover.txt")"
[ -n "$RECOVERED" ] || { echo "recovery did not reopen the table"; cat "$INGDIR/recover.txt"; exit 1; }
[ "$RECOVERED" -ge "$ACKED" ] || { echo "lost acked writes: acked $ACKED, recovered $RECOVERED"; cat "$INGDIR/recover.txt"; exit 1; }
grep -q "select: $RECOVERED results" "$INGDIR/recover.txt" || { echo "live select disagrees with recovered count"; cat "$INGDIR/recover.txt"; exit 1; }
rm -rf "$INGDIR"

echo "== multi-shard smoke (partition 4 tiles, boot shards + coordinator, parity, drain)"
# Partition two layers into 4 spatial tiles, boot one spatiald per tile
# plus a coordinator fronting them, and verify the scatter-gather join
# and select answers are line-identical to the single-node answers
# (stable global ids make them directly comparable). Then SIGTERM the
# whole fleet and require clean drains.
SHDIR="$(mktemp -d /tmp/shard_smoke.XXXXXX)"
SHPIDS=""
trap '[ -z "$SHPIDS" ] || kill $SHPIDS 2>/dev/null || true; rm -rf "$SHDIR"' EXIT
go build -o "$SHDIR/spatiald" ./cmd/spatiald
go build -o "$SHDIR/spatialdb" ./cmd/spatialdb
"$SHDIR/spatialdb" >"$SHDIR/single.txt" <<EOF
gen a LANDC 0.01
gen b LANDO 0.01
partition a 4 $SHDIR/tiles 2
partition b 4 $SHDIR/tiles 2
shardjoin a b -Inf -Inf +Inf +Inf
shardselect a POLYGON((10 10, 40 10, 40 40, 10 40, 10 10))
EOF
grep -c 'partitioned' "$SHDIR/single.txt" | grep -q 2 || { echo "partition failed"; cat "$SHDIR/single.txt"; exit 1; }
# Boot one shard per tile directory on an ephemeral port.
bound_addr() {
	i=0
	while [ $i -lt 100 ]; do
		a="$(sed -n 's/.*serving wire protocol on \([0-9.]*:[0-9]*\).*/\1/p' "$1")"
		if [ -n "$a" ]; then echo "$a"; return 0; fi
		i=$((i + 1)); sleep 0.1
	done
	echo "shard did not report its address: $1" >&2; return 1
}
ADDRS=""
for d in "$SHDIR"/tiles/shard-0 "$SHDIR"/tiles/shard-1 "$SHDIR"/tiles/shard-2 "$SHDIR"/tiles/shard-3; do
	log="$SHDIR/$(basename "$d").log"
	"$SHDIR/spatiald" -addr 127.0.0.1:0 -http "" -data "$d" -quiet >"$log" 2>&1 &
	SHPIDS="$SHPIDS $!"
	ADDRS="$ADDRS,$(bound_addr "$log")"
done
ADDRS="${ADDRS#,}"
"$SHDIR/spatiald" -addr 127.0.0.1:0 -http "" -coordinator "$SHDIR/tiles" -shards "$ADDRS" -quiet >"$SHDIR/coord.log" 2>&1 &
COORD_PID=$!
SHPIDS="$SHPIDS $COORD_PID"
COORD_ADDR="$(bound_addr "$SHDIR/coord.log")"
"$SHDIR/spatiald" -connect "$COORD_ADDR" -e "join a b; select a POLYGON((10 10, 40 10, 40 40, 10 40, 10 10))" >"$SHDIR/fleet.txt"
grep -oE 'pair [0-9]+ [0-9]+' "$SHDIR/single.txt" | sort >"$SHDIR/single_pairs.txt"
grep -oE 'pair [0-9]+ [0-9]+' "$SHDIR/fleet.txt" | sort >"$SHDIR/fleet_pairs.txt"
[ -s "$SHDIR/single_pairs.txt" ] || { echo "single-node join produced no pairs"; exit 1; }
cmp -s "$SHDIR/single_pairs.txt" "$SHDIR/fleet_pairs.txt" || {
	echo "sharded join differs from single-node join"
	diff "$SHDIR/single_pairs.txt" "$SHDIR/fleet_pairs.txt" | head -10
	exit 1
}
grep -oE '\bid [0-9]+' "$SHDIR/single.txt" | sort >"$SHDIR/single_ids.txt"
grep -oE '\bid [0-9]+' "$SHDIR/fleet.txt" | sort >"$SHDIR/fleet_ids.txt"
[ -s "$SHDIR/single_ids.txt" ] || { echo "single-node select produced no ids"; exit 1; }
cmp -s "$SHDIR/single_ids.txt" "$SHDIR/fleet_ids.txt" || {
	echo "sharded select differs from single-node select"
	diff "$SHDIR/single_ids.txt" "$SHDIR/fleet_ids.txt" | head -10
	exit 1
}
# Clean drain: every process must exit 0 on SIGTERM.
for pid in $SHPIDS; do kill -TERM "$pid"; done
for pid in $SHPIDS; do
	wait "$pid" || { echo "fleet process $pid did not drain cleanly"; cat "$SHDIR"/*.log; exit 1; }
done
SHPIDS=""
grep -q 'shutting down' "$SHDIR/coord.log" || { echo "coordinator skipped the drain path"; cat "$SHDIR/coord.log"; exit 1; }
trap - EXIT
rm -rf "$SHDIR"

echo "== failover smoke (2 tiles x 2 replicas, SIGKILL a replica, retries cover, prober readmits)"
# Partition at replicas=2 and boot the four-process fleet behind a
# hedging, probing coordinator. A SIGKILL'd replica must not degrade the
# answer: the next join has to complete from 2/2 shards with the pair set
# line-identical to single-node (the coordinator fails over to the
# surviving sibling). Then the corpse restarts on its pinned address and
# the shards verb must show the prober readmitting it (breaker leaves
# "open"), after which a final join confirms the fleet healed.
FODIR="$(mktemp -d /tmp/failover_smoke.XXXXXX)"
FOPIDS=""
trap '[ -z "$FOPIDS" ] || kill -9 $FOPIDS 2>/dev/null || true; rm -rf "$FODIR"' EXIT
go build -o "$FODIR/spatiald" ./cmd/spatiald
go build -o "$FODIR/spatialdb" ./cmd/spatialdb
"$FODIR/spatialdb" >"$FODIR/single.txt" <<EOF
gen a LANDC 0.01
gen b LANDO 0.01
partition a 2 $FODIR/tiles 2 2
partition b 2 $FODIR/tiles 2 2
shardjoin a b -Inf -Inf +Inf +Inf
EOF
grep -oE 'pair [0-9]+ [0-9]+' "$FODIR/single.txt" | sort >"$FODIR/single_pairs.txt"
[ -s "$FODIR/single_pairs.txt" ] || { echo "single-node join produced no pairs"; cat "$FODIR/single.txt"; exit 1; }
# Boot replica r of tile t over tiles/shard-<t>[-r<r>]; the routing table
# pins each replica's address, so restarts reuse it.
VICTIM_PID=""
RADDRS=""
for d in shard-0 shard-0-r1 shard-1 shard-1-r1; do
	log="$FODIR/$d.log"
	"$FODIR/spatiald" -addr 127.0.0.1:0 -http "" -data "$FODIR/tiles/$d" -quiet >"$log" 2>&1 &
	pid=$!
	FOPIDS="$FOPIDS $pid"
	[ -n "$VICTIM_PID" ] || VICTIM_PID=$pid
	RADDRS="$RADDRS $(bound_addr "$log")"
done
set -- $RADDRS
VICTIM_ADDR=$1
"$FODIR/spatiald" -addr 127.0.0.1:0 -http "" -coordinator "$FODIR/tiles" \
	-shards "$1/$2,$3/$4" -shard-probe 50ms -shard-hedge 25ms -quiet >"$FODIR/coord.log" 2>&1 &
FOPIDS="$FOPIDS $!"
FO_ADDR="$(bound_addr "$FODIR/coord.log")"
fo_join() {
	"$FODIR/spatiald" -connect "$FO_ADDR" -e "join a b" >"$FODIR/$1.txt" || { echo "$1 join failed"; cat "$FODIR/$1.txt"; exit 1; }
	grep -q 'from 2/2 shards' "$FODIR/$1.txt" || { echo "$1 join did not complete from 2/2 shards"; cat "$FODIR/$1.txt"; exit 1; }
	grep -oE 'pair [0-9]+ [0-9]+' "$FODIR/$1.txt" | sort >"$FODIR/$1_pairs.txt"
	cmp -s "$FODIR/single_pairs.txt" "$FODIR/$1_pairs.txt" || {
		echo "$1 join differs from single-node join"
		diff "$FODIR/single_pairs.txt" "$FODIR/$1_pairs.txt" | head -10
		exit 1
	}
}
fo_join healthy
kill -9 "$VICTIM_PID"
fo_join degraded
"$FODIR/spatiald" -addr "$VICTIM_ADDR" -http "" -data "$FODIR/tiles/shard-0" -quiet >"$FODIR/shard-0-restart.log" 2>&1 &
FOPIDS="$FOPIDS $!"
bound_addr "$FODIR/shard-0-restart.log" >/dev/null
READMITTED=0
i=0
while [ $i -lt 100 ]; do
	st="$("$FODIR/spatiald" -connect "$FO_ADDR" -e shards | awk '$2=="0/0"{print $5}')"
	if [ -n "$st" ] && [ "$st" != "open" ]; then READMITTED=1; break; fi
	i=$((i + 1)); sleep 0.1
done
[ "$READMITTED" -eq 1 ] || { echo "prober never readmitted the restarted replica (state '$st')"; "$FODIR/spatiald" -connect "$FO_ADDR" -e shards; exit 1; }
fo_join recovered
kill $FOPIDS 2>/dev/null || true
FOPIDS=""
trap - EXIT
rm -rf "$FODIR"

echo "== streaming + batch smoke (in-process hw vs in-process sw vs wire-streamed parity)"
# The join executor must never change answers: the same full-extent
# join must produce line-identical pairs run in-process with the
# hardware-assisted tester, in-process with the software tester, and
# over the wire (rows streamed as batches complete). The batch verb must
# run its ";"-separated sub-commands in one round trip with per-sub
# trailers.
STDIR="$(mktemp -d /tmp/stream_smoke.XXXXXX)"
STPID=""
trap '[ -z "$STPID" ] || kill $STPID 2>/dev/null || true; rm -rf "$STDIR"' EXIT
go build -o "$STDIR/spatiald" ./cmd/spatiald
go build -o "$STDIR/spatialdb" ./cmd/spatialdb
mkdir "$STDIR/snap"
"$STDIR/spatialdb" -data "$STDIR/snap" >"$STDIR/pipe.txt" <<'EOF'
gen a LANDC 0.01
gen b LANDO 0.01
save a a
save b b
shardjoin a b -Inf -Inf +Inf +Inf
EOF
"$STDIR/spatialdb" -data "$STDIR/snap" >"$STDIR/sw.txt" <<'EOF'
load a a
load b b
shardjoin a b -Inf -Inf +Inf +Inf sw
EOF
"$STDIR/spatiald" -addr 127.0.0.1:0 -http "" -data "$STDIR/snap" -quiet >"$STDIR/stream.log" 2>&1 &
STPID=$!
ST_ADDR="$(bound_addr "$STDIR/stream.log")"
# One stdin line so the ";" reaches the server inside the batch verb
# (the client's -e flag splits scripts on ";" before sending).
echo "shardjoin a b -Inf -Inf +Inf +Inf" | "$STDIR/spatiald" -connect "$ST_ADDR" >"$STDIR/wire.txt"
for f in pipe sw wire; do
	grep -oE 'pair [0-9]+ [0-9]+' "$STDIR/$f.txt" | sort >"$STDIR/$f.pairs"
done
[ -s "$STDIR/pipe.pairs" ] || { echo "pipelined shardjoin produced no pairs"; cat "$STDIR/pipe.txt"; exit 1; }
cmp -s "$STDIR/pipe.pairs" "$STDIR/sw.pairs" || {
	echo "software-tester shardjoin differs from the hardware-assisted one"
	diff "$STDIR/pipe.pairs" "$STDIR/sw.pairs" | head -10
	exit 1
}
cmp -s "$STDIR/pipe.pairs" "$STDIR/wire.pairs" || {
	echo "wire-streamed join differs from in-process join"
	diff "$STDIR/pipe.pairs" "$STDIR/wire.pairs" | head -10
	exit 1
}
echo "batch join a b sw; shardjoin a b -Inf -Inf +Inf +Inf" | "$STDIR/spatiald" -connect "$ST_ADDR" >"$STDIR/batch.txt"
grep -q 'sub 1 ok: join' "$STDIR/batch.txt" || { echo "batch sub 1 trailer missing"; cat "$STDIR/batch.txt"; exit 1; }
grep -q 'sub 2 ok: shardjoin' "$STDIR/batch.txt" || { echo "batch sub 2 trailer missing"; cat "$STDIR/batch.txt"; exit 1; }
grep -oE 'pair [0-9]+ [0-9]+' "$STDIR/batch.txt" | sort >"$STDIR/batch.pairs"
cmp -s "$STDIR/pipe.pairs" "$STDIR/batch.pairs" || {
	echo "batch-verb join differs from in-process join"
	diff "$STDIR/pipe.pairs" "$STDIR/batch.pairs" | head -10
	exit 1
}
kill -TERM "$STPID"
wait "$STPID" || { echo "streaming server did not drain cleanly"; cat "$STDIR/stream.log"; exit 1; }
STPID=""
trap - EXIT
rm -rf "$STDIR"

echo "== fuzz smoke (${FUZZTIME} each)"
go test ./internal/data/ -fuzz FuzzDataRead -fuzztime "$FUZZTIME"
go test ./internal/data/ -fuzz FuzzWKTParse -fuzztime "$FUZZTIME"
go test ./internal/store/ -fuzz FuzzSnapshotOpen -fuzztime "$FUZZTIME"
go test ./internal/store/ -fuzz FuzzIntervalSection -fuzztime "$FUZZTIME"
go test ./internal/wal/ -fuzz FuzzWALOpen -fuzztime "$FUZZTIME"

echo "== all checks passed"
