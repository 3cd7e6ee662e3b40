#!/bin/sh
# Persistence smoke test: a short mirasim run flushes segment files, a warm
# miraanalyze reopens them without simulating, and the warm figures must be
# byte-identical to the CSV-based in-memory path. A corrupted segment must
# surface as a descriptive error, not a panic.
#
# The window sits mid-month with margin on both sides: the CSV path carries
# UTC timestamps while segments preserve the simulation zone, so a window
# touching a month boundary would bucket differently, not incorrectly.
set -eu
cd "$(dirname "$0")/.."

bin=$(mktemp -d)
data=$(mktemp -d)
mon_pid=
disp_pid=
wkr_pids=
cleanup() {
	[ -n "$mon_pid" ] && kill "$mon_pid" 2>/dev/null
	[ -n "$disp_pid" ] && kill "$disp_pid" 2>/dev/null
	for p in $wkr_pids; do kill "$p" 2>/dev/null || true; done
	rm -rf "$bin" "$data"
}
trap cleanup EXIT

go build -o "$bin" ./cmd/mirasim ./cmd/miraanalyze ./cmd/miramon ./cmd/miradispatch

"$bin/mirasim" -start 2014-03-05 -end 2014-03-12 \
	-data "$data/seg" -telemetry "$data/telemetry.csv" >/dev/null

"$bin/miraanalyze" -data "$data/seg" >"$data/warm.txt"
grep -q '^warm start:' "$data/warm.txt" || {
	echo "smoke: miraanalyze -data did not warm-start" >&2
	exit 1
}

"$bin/miraanalyze" -from "$data/telemetry.csv" >"$data/csv.txt"

# Figures must match; only the first provenance line ("warm start: ..." vs
# "loaded ...") may differ.
tail -n +2 "$data/warm.txt" >"$data/warm-figs.txt"
tail -n +2 "$data/csv.txt" >"$data/csv-figs.txt"
if ! diff -u "$data/warm-figs.txt" "$data/csv-figs.txt"; then
	echo "smoke: warm segment figures differ from the CSV in-memory path" >&2
	exit 1
fi

# The parallel shard fan-out must be a pure performance change: replaying
# the warm store with 1 worker and with 8 must print byte-identical
# figures.
"$bin/miraanalyze" -data "$data/seg" -scan-workers 1 >"$data/scan1.txt"
"$bin/miraanalyze" -data "$data/seg" -scan-workers 8 >"$data/scan8.txt"
if ! diff -u "$data/scan1.txt" "$data/scan8.txt"; then
	echo "smoke: figures differ between -scan-workers 1 and 8" >&2
	exit 1
fi
if ! diff -u "$data/warm.txt" "$data/scan1.txt"; then
	echo "smoke: -scan-workers 1 figures differ from the default scan" >&2
	exit 1
fi

# Retention compaction: persist a second store with daily partitions, then
# let miraanalyze -retention fold everything but the newest day into 1-hour
# downsampled windows on disk. The Fig. 7/9 pushdown figures aggregate
# exactly across both tiers, so they must be byte-identical before and
# after compaction; the replay figure (3) must still run over the hot
# window.
"$bin/mirasim" -start 2014-03-05 -end 2014-03-12 -partition 24h \
	-data "$data/cold" >/dev/null
"$bin/miraanalyze" -data "$data/cold" -figure 7 >"$data/fig7-before.txt"
"$bin/miraanalyze" -data "$data/cold" -figure 9 >"$data/fig9-before.txt"

"$bin/miraanalyze" -data "$data/cold" -retention 24h -figure 7 >"$data/compact.txt"
grep -q 'compacted [0-9]* raw records into [0-9]* downsampled windows' "$data/compact.txt" || {
	echo "smoke: miraanalyze -retention did not report a compaction" >&2
	exit 1
}
find "$data/cold" -name '*.cold.seg' | grep -q . || {
	echo "smoke: compaction left no cold segment files" >&2
	exit 1
}

"$bin/miraanalyze" -data "$data/cold" -figure 7 >"$data/fig7-after.txt"
"$bin/miraanalyze" -data "$data/cold" -figure 9 >"$data/fig9-after.txt"
for fig in 7 9; do
	tail -n +2 "$data/fig$fig-before.txt" >"$data/fig$fig-before-figs.txt"
	tail -n +2 "$data/fig$fig-after.txt" >"$data/fig$fig-after-figs.txt"
	if ! diff -u "$data/fig$fig-before-figs.txt" "$data/fig$fig-after-figs.txt"; then
		echo "smoke: figure $fig pushdown differs after retention compaction" >&2
		exit 1
	fi
done
"$bin/miraanalyze" -data "$data/cold" -figure 3 >/dev/null || {
	echo "smoke: replay figure failed over the compacted store" >&2
	exit 1
}

# Network round trip: serve the warm store over the wire, check the remote
# figures are byte-identical to the local warm replay, push a fresh day of
# telemetry into the live server, and verify a SIGTERM shutdown flushes the
# ingested records to disk before exiting.
"$bin/miramon" -serve -listen 127.0.0.1:0 -data "$data/seg" 2>"$data/mon.log" &
mon_pid=$!
addr=
i=0
while [ $i -lt 100 ]; do
	addr=$(sed -n 's/.*telemetry API on //p' "$data/mon.log" | head -n 1)
	[ -n "$addr" ] && break
	kill -0 "$mon_pid" 2>/dev/null || {
		echo "smoke: miramon -serve exited early:" >&2
		cat "$data/mon.log" >&2
		exit 1
	}
	sleep 0.1
	i=$((i + 1))
done
[ -n "$addr" ] || {
	echo "smoke: miramon -serve never reported its address" >&2
	cat "$data/mon.log" >&2
	exit 1
}

"$bin/miraanalyze" -remote "http://$addr" >"$data/remote.txt"
tail -n +2 "$data/remote.txt" >"$data/remote-figs.txt"
if ! diff -u "$data/warm-figs.txt" "$data/remote-figs.txt"; then
	echo "smoke: remote figures differ from the local warm replay" >&2
	exit 1
fi

"$bin/mirasim" -start 2014-03-12 -end 2014-03-13 -push "http://$addr" >"$data/push.txt"
grep -q 'telemetry pushed: [1-9][0-9]* records' "$data/push.txt" || {
	echo "smoke: mirasim -push did not report pushed telemetry:" >&2
	cat "$data/push.txt" >&2
	exit 1
}

kill -TERM "$mon_pid"
wait "$mon_pid" || {
	echo "smoke: miramon -serve exited non-zero on SIGTERM:" >&2
	cat "$data/mon.log" >&2
	exit 1
}
mon_pid=
grep -q 'shutdown complete' "$data/mon.log" || {
	echo "smoke: miramon -serve did not log a graceful shutdown:" >&2
	cat "$data/mon.log" >&2
	exit 1
}

before=$(sed -n 's/^warm start: loaded \([0-9][0-9]*\) .*/\1/p' "$data/warm.txt")
"$bin/miraanalyze" -data "$data/seg" -figure 7 >"$data/after-push.txt"
after=$(sed -n 's/^warm start: loaded \([0-9][0-9]*\) .*/\1/p' "$data/after-push.txt")
if [ -z "$before" ] || [ -z "$after" ] || [ "$after" -le "$before" ]; then
	echo "smoke: graceful shutdown did not persist pushed records ($before -> ${after:-?})" >&2
	exit 1
fi

# Fleet round trip: the same two-hall window simulated twice — once into a
# local fleet store, once pushed over the wire into a fleet-sized
# miramon -serve — must analyze identically hall by hall. The push travels
# the wire encoding for hall 1, so this also proves the fleet encoding
# survives sim -> push -> remote analysis bit-exactly.
"$bin/mirasim" -halls 2 -start 2014-03-05 -end 2014-03-07 \
	-data "$data/fleet-local" >/dev/null

"$bin/miramon" -serve -listen 127.0.0.1:0 -halls 2 -data "$data/fleet-remote" \
	2>"$data/fleet-mon.log" &
mon_pid=$!
addr=
i=0
while [ $i -lt 100 ]; do
	addr=$(sed -n 's/.*telemetry API on //p' "$data/fleet-mon.log" | head -n 1)
	[ -n "$addr" ] && break
	kill -0 "$mon_pid" 2>/dev/null || {
		echo "smoke: fleet miramon -serve exited early:" >&2
		cat "$data/fleet-mon.log" >&2
		exit 1
	}
	sleep 0.1
	i=$((i + 1))
done
[ -n "$addr" ] || {
	echo "smoke: fleet miramon -serve never reported its address" >&2
	cat "$data/fleet-mon.log" >&2
	exit 1
}

"$bin/mirasim" -halls 2 -start 2014-03-05 -end 2014-03-07 \
	-push "http://$addr" >"$data/fleet-push.txt"
grep -q 'telemetry pushed: [1-9][0-9]* records' "$data/fleet-push.txt" || {
	echo "smoke: fleet mirasim -push did not report pushed telemetry:" >&2
	cat "$data/fleet-push.txt" >&2
	exit 1
}

for hall in 0 1; do
	"$bin/miraanalyze" -data "$data/fleet-local" -halls 2 -hall "$hall" \
		>"$data/fleet-local-$hall.txt"
	"$bin/miraanalyze" -remote "http://$addr" -hall "$hall" \
		>"$data/fleet-remote-$hall.txt"
	tail -n +2 "$data/fleet-local-$hall.txt" >"$data/fleet-local-$hall-figs.txt"
	tail -n +2 "$data/fleet-remote-$hall.txt" >"$data/fleet-remote-$hall-figs.txt"
	if ! diff -u "$data/fleet-local-$hall-figs.txt" "$data/fleet-remote-$hall-figs.txt"; then
		echo "smoke: hall $hall remote fleet figures differ from the local fleet store" >&2
		exit 1
	fi
done

kill -TERM "$mon_pid"
wait "$mon_pid" || {
	echo "smoke: fleet miramon -serve exited non-zero on SIGTERM:" >&2
	cat "$data/fleet-mon.log" >&2
	exit 1
}
mon_pid=

# Campaign sweep: a 3-job scenario sweep across 2 workers must complete
# every job exactly once even though one worker is SIGKILLed mid-job and
# the dispatcher is restarted once mid-sweep — the durable queue recovers
# from disk with the in-flight job demoted back to pending, fresh workers
# drain the sweep, and the comparison table prints all three rows.
cat >"$data/sweep1.json" <<'EOF'
{"name": "sweep1", "seed": 42, "start": "2014-03-01", "end": "2014-06-01"}
EOF
cat >"$data/sweep2.json" <<'EOF'
{"name": "sweep2", "seed": 42, "start": "2014-03-01", "end": "2014-06-01", "failure_scale": 3}
EOF
cat >"$data/sweep3.json" <<'EOF'
{"name": "sweep3", "seed": 42, "start": "2014-03-01", "end": "2014-06-01", "weather_seed": 7}
EOF

"$bin/miradispatch" -data "$data/campaign" -listen 127.0.0.1:0 -lease 2s \
	2>"$data/disp1.log" &
disp_pid=$!
caddr=
i=0
while [ $i -lt 100 ]; do
	caddr=$(sed -n 's/.*campaign dispatcher on //p' "$data/disp1.log" | head -n 1)
	[ -n "$caddr" ] && break
	kill -0 "$disp_pid" 2>/dev/null || {
		echo "smoke: miradispatch exited early:" >&2
		cat "$data/disp1.log" >&2
		exit 1
	}
	sleep 0.1
	i=$((i + 1))
done
[ -n "$caddr" ] || {
	echo "smoke: miradispatch never reported its address" >&2
	cat "$data/disp1.log" >&2
	exit 1
}

"$bin/miradispatch" -url "http://$caddr" \
	-submit "$data/sweep1.json,$data/sweep2.json,$data/sweep3.json" >"$data/submit.txt"
[ "$(grep -c 'submitted' "$data/submit.txt")" = 3 ] || {
	echo "smoke: expected 3 submitted jobs:" >&2
	cat "$data/submit.txt" >&2
	exit 1
}

# Worker A claims a job and is SIGKILLed mid-run — no fail report, no
# graceful anything; its job must come back through queue recovery.
"$bin/mirasim" -worker "http://$caddr" 2>"$data/workerA.log" &
wkrA=$!
wkr_pids="$wkrA"
i=0
while [ $i -lt 200 ]; do
	grep -q 'claimed job' "$data/workerA.log" && break
	kill -0 "$wkrA" 2>/dev/null || break
	sleep 0.05
	i=$((i + 1))
done
grep -q 'claimed job' "$data/workerA.log" || {
	echo "smoke: worker A never claimed a job:" >&2
	cat "$data/workerA.log" >&2
	exit 1
}
kill -9 "$wkrA"
wait "$wkrA" 2>/dev/null || true
wkr_pids=

# Restart the dispatcher mid-sweep over the same queue directory: the
# killed worker's in-flight job (leases are in-memory only) must demote
# back to pending, with nothing lost and nothing duplicated.
kill -TERM "$disp_pid"
wait "$disp_pid" || {
	echo "smoke: miradispatch exited non-zero on SIGTERM:" >&2
	cat "$data/disp1.log" >&2
	exit 1
}
disp_pid=
grep -q 'shutdown complete' "$data/disp1.log" || {
	echo "smoke: miradispatch did not log a graceful shutdown:" >&2
	cat "$data/disp1.log" >&2
	exit 1
}

"$bin/miradispatch" -data "$data/campaign" -listen 127.0.0.1:0 -lease 2s \
	2>"$data/disp2.log" &
disp_pid=$!
caddr=
i=0
while [ $i -lt 100 ]; do
	caddr=$(sed -n 's/.*campaign dispatcher on //p' "$data/disp2.log" | head -n 1)
	[ -n "$caddr" ] && break
	kill -0 "$disp_pid" 2>/dev/null || {
		echo "smoke: restarted miradispatch exited early:" >&2
		cat "$data/disp2.log" >&2
		exit 1
	}
	sleep 0.1
	i=$((i + 1))
done
[ -n "$caddr" ] || {
	echo "smoke: restarted miradispatch never reported its address" >&2
	cat "$data/disp2.log" >&2
	exit 1
}
grep -q 'recovered: 3 pending, 0 done, 0 failed' "$data/disp2.log" || {
	echo "smoke: restarted dispatcher did not demote the in-flight job:" >&2
	cat "$data/disp2.log" >&2
	exit 1
}

# Two fresh workers drain the sweep and exit on their own.
"$bin/mirasim" -worker "http://$caddr" 2>"$data/workerB.log" &
wkrB=$!
"$bin/mirasim" -worker "http://$caddr" 2>"$data/workerC.log" &
wkrC=$!
wkr_pids="$wkrB $wkrC"
for w in B:$wkrB C:$wkrC; do
	pid=${w#*:}
	wait "$pid" || {
		echo "smoke: worker ${w%%:*} exited non-zero:" >&2
		cat "$data/worker${w%%:*}.log" >&2
		exit 1
	}
done
wkr_pids=
for w in B C; do
	grep -q 'queue drained' "$data/worker$w.log" || {
		echo "smoke: worker $w did not exit on a drained queue:" >&2
		cat "$data/worker$w.log" >&2
		exit 1
	}
done

"$bin/miradispatch" -url "http://$caddr" -status >"$data/campaign-status.txt"
[ "$(grep -c ' done ' "$data/campaign-status.txt")" = 3 ] || {
	echo "smoke: expected 3 done jobs after the sweep:" >&2
	cat "$data/campaign-status.txt" >&2
	exit 1
}

"$bin/miraanalyze" -campaign "http://$caddr" >"$data/campaign-table.txt"
grep -q '3 jobs, 3 completed' "$data/campaign-table.txt" || {
	echo "smoke: campaign results are not exactly-once:" >&2
	cat "$data/campaign-table.txt" >&2
	exit 1
}
for name in sweep1 sweep2 sweep3; do
	grep -q "$name" "$data/campaign-table.txt" || {
		echo "smoke: comparison table is missing $name:" >&2
		cat "$data/campaign-table.txt" >&2
		exit 1
	}
done
grep -q 'baseline: job 1 (sweep1)' "$data/campaign-table.txt" || {
	echo "smoke: comparison table has no baseline line:" >&2
	cat "$data/campaign-table.txt" >&2
	exit 1
}

kill -TERM "$disp_pid"
wait "$disp_pid" || true
disp_pid=

# A corrupted cold segment must be rejected as descriptively as a raw one.
coldseg=$(find "$data/cold" -name '*.cold.seg' | head -n 1)
coldsize=$(wc -c <"$coldseg")
truncate -s $((coldsize - 7)) "$coldseg"
if "$bin/miraanalyze" -data "$data/cold" >"$data/cold-corrupt.txt" 2>&1; then
	echo "smoke: corrupted cold segment was accepted" >&2
	exit 1
fi
grep -q 'corrupt segment' "$data/cold-corrupt.txt" || {
	echo "smoke: cold corruption error is not descriptive:" >&2
	cat "$data/cold-corrupt.txt" >&2
	exit 1
}

# Corruption: truncate one segment mid-payload.
seg=$(find "$data/seg" -name '*.seg' | head -n 1)
size=$(wc -c <"$seg")
truncate -s $((size / 2)) "$seg"
if "$bin/miraanalyze" -data "$data/seg" >"$data/corrupt.txt" 2>&1; then
	echo "smoke: corrupted segment was accepted" >&2
	exit 1
fi
grep -q 'corrupt segment' "$data/corrupt.txt" || {
	echo "smoke: corruption error is not descriptive:" >&2
	cat "$data/corrupt.txt" >&2
	exit 1
}

echo "smoke: ok (warm figures match the in-memory path; remote figures match over the wire; push + graceful shutdown persisted; pushdown figures survive retention compaction; two-hall fleet push analyzes hall-identical to the local store; 3-job campaign sweep survived a worker kill and a dispatcher restart exactly-once; corruption rejected)"
