#!/usr/bin/env bash
# make reach: which functions of cloudfog/internal/... does the product
# actually enter? Builds the product's binaries (cmd/ and bench/) with
# coverage instrumentation over the whole module, drives each the way the
# Makefile smokes, the verify skill and the README recipes drive it —
# including a multi-process role deployment with a SIGTERM drain and a
# SIGKILL — merges the counters, and prints the functions no run entered plus
# the statement total. The examples/ walkthroughs are built without coverage
# and run, and any that exits non-zero fails the run, but what they enter
# counts for nothing: an example is not a binary, figure, workload or role
# (DESIGN.md §18). Not a coverage gate, but it has two hard checks: an
# internal package that no cmd/ or bench/ binary links fails the run, and so
# does a never-entered list that differs from scripts/reach-allow.txt — a
# name outside the file is new dead code (wire it, delete it, or add it with
# its reason to DESIGN.md §18), a name only in the file is now entered or
# gone (take it out).
#
# Everything it writes goes under .reach/ (git-ignored). Set REACH_PORT to
# move the role deployment off 127.0.0.1:19700-19706.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
out="$root/.reach"
bin="$out/bin"
run="$out/run"
rm -rf "$out"
mkdir -p "$bin" "$run" "$out/cov" "$out/examples"
export GOFLAGS=-buildvcs=false

# --- The hard check: every internal package is linked by a product binary. ---
{
	go list -deps ./cmd/...
	go list -C bench -deps .
} | grep '^cloudfog/internal/' | sort -u >"$out/linked.txt"
go list ./internal/... | sort >"$out/packages.txt"
comm -23 "$out/packages.txt" "$out/linked.txt" >"$out/unlinked.txt"

# --- Build. Examples are every main package under examples/, built plain. ---
go build -cover -coverpkg=cloudfog/... -o "$bin/" ./cmd/...
go build -C bench -cover -coverpkg=cloudfog/... -o "$bin/cloudfog-bench" .
mapfile -t examples < <(go list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./examples/... | sed '/^$/d')
go build -o "$out/examples/" "${examples[@]}"
export GOCOVERDIR="$out/cov"

step() { echo "reach: $*" >&2; }
quiet() { "$@" >>"$run/stdout.log" 2>>"$run/stderr.log"; }

step "examples (${#examples[@]}, run, not counted)"
for ex in "${examples[@]}"; do
	if ! quiet "$out/examples/${ex##*/}"; then
		echo "reach: FAIL — example ${ex##*/} exited non-zero; see $run/stderr.log" >&2
		exit 1
	fi
done

# --- The simulator: every figure, the chaos and detect smokes, the sharded
# scale run, a recording. ---
step "cloudfog-sim"
# A QoE figure's horizon must end past the meters' 5 s warm-up (fig9a's
# points run a third of it), or the figure refuses to run.
quiet "$bin/cloudfog-sim" -figures all -players 2000 -supernodes 150 -horizon 18s -save-trace "$run/trace.json"
quiet "$bin/cloudfog-sim" -figures fig9a -players 800 -supernodes 50 -shards 4 -horizon 18s
quiet "$bin/cloudfog-sim" -figures figchurn,figrecovery -faults examples/chaos/profile.json \
	-players 1500 -supernodes 100 -horizon 10s -report "$run/chaos_report.json"
quiet "$bin/cloudfog-sim" -figures figdetect -players 1500 -supernodes 100 \
	-report "$run/detect_report.json"
quiet "$bin/cloudfog-sim" -scale -players 1500 -supernodes 100 -shards 4 \
	-horizon 30s -epoch 10s -detector phi -overload -report "$run/scale_report.json" -csv
quiet "$bin/cloudfog-sim" -figures figchurn,figrecovery -players 400 -supernodes 25 -datacenters 3 \
	-horizon 60s -detector timeout -overload -faults examples/flight/profile.json \
	-record "$run/chaos.flight" -csv

step "cloudfog-replay"
quiet "$bin/cloudfog-replay" examples/flight/chaos.flight
quiet "$bin/cloudfog-replay" examples/flight/sharded.flight
quiet "$bin/cloudfog-replay" -from figrecovery examples/flight/chaos.flight
quiet "$bin/cloudfog-replay" -whatif detector=phi -expect-diff -json "$run/whatif.json" examples/flight/chaos.flight
for knob in players=300 horizon=30s overload=false seed=7 bandwidth=0.5; do # one knob of each value type
	quiet "$bin/cloudfog-replay" -whatif "$knob" examples/flight/chaos.flight
done
quiet "$bin/cloudfog-replay" -describe examples/flight/sharded.flight

step "cloudfog-econ, cloudfog-testbed"
quiet "$bin/cloudfog-econ"
quiet "$bin/cloudfog-testbed" -players 60 -supernodes 20 -servers 2 -parallel 64

# --- The live plane, in-process: the flat-flag demo over TCP with metrics
# served, and over UDP under the default chaos profile. ---
port=${REACH_PORT:-19700}
step "cloudfog-live (flat flags)"
quiet "$bin/cloudfog-live" -players 4 -supernodes 3 -duration 4s -metrics-addr "127.0.0.1:$port"
quiet "$bin/cloudfog-live" -players 4 -supernodes 3 -duration 5s -transport udp -chaos default

# --- The live plane, one process per role: the README's coordinator recipe
# in its leases variant, plus a static-ring player. Worker 1 is drained by
# SIGTERM mid-session, worker 3 is SIGKILLed (it leaves no counters; the
# coordinator burying it and the players failing over do). ---
step "cloudfog-live (role deployment)"
cloud="127.0.0.1:$((port + 1))"
coord="127.0.0.1:$((port + 2))"
declare -A pid
role() { # role <name> <role> <config-json> [flags...]: start in the background, remember the pid
	local name=$1 kind=$2 json=$3
	shift 3
	echo "$json" >"$run/$name.json"
	"$bin/cloudfog-live" "$kind" -config "$run/$name.json" "$@" >"$run/$name.out" 2>&1 &
	pid[$name]=$!
}
role cloud cloud '{"addr":"'$cloud'","tick":20000000,"direct_fps":10}'
role coord coordinator '{"role":"coordinator","addr":"'$coord'","cloud_addr":"'$cloud'",
	"ticket_key":"k1","lease_ttl":2000000000,"detector":{"Mode":2,"Interval":100000000}}' \
	-report "$run/ledger.json" -metrics-addr "127.0.0.1:$((port + 6))"
sleep 0.5
for i in 1 2 3; do
	role "worker$i" supernode '{"id":'$i',"addr":"127.0.0.1:'$((port + 2 + i))'","cloud_addr":"'$cloud'",
		"coord_addr":"'$coord'","ticket_key":"k1","fps":30,"capacity":16,
		"x":'$((i * 2500))',"y":5000,"report_every":50000000}'
done
sleep 1
players=()
for i in 41 42 43; do
	echo '{"id":'$i',"game_id":1,"cloud_addr":"'$cloud'","coord_addr":"'$coord'",
		"ticket_key":"k1","x":'$(((i - 40) * 2500))',"y":5000}' >"$run/player$i.json"
	"$bin/cloudfog-live" player -config "$run/player$i.json" -duration 7s >"$run/player$i.out" 2>&1 &
	players+=($!)
done
echo '{"id":44,"game_id":1,"cloud_addr":"'$cloud'","stream_addr":"127.0.0.1:'$((port + 4))'",
	"backup_addrs":["127.0.0.1:'$((port + 3))'"]}' >"$run/player44.json"
"$bin/cloudfog-live" player -config "$run/player44.json" -duration 7s >"$run/player44.out" 2>&1 &
players+=($!)
sleep 2
kill -TERM "${pid[worker1]}"
sleep 2
kill -KILL "${pid[worker3]}"
# One scrape of the coordinator's books (bash's /dev/tcp: no curl needed).
if exec 3<>"/dev/tcp/127.0.0.1/$((port + 6))"; then
	printf 'GET /metrics HTTP/1.0\r\n\r\n' >&3
	cat <&3 >"$run/coord_metrics.txt"
	exec 3<&-
fi
failed=0
for p in "${players[@]}"; do
	wait "$p" || failed=1
done
kill -TERM "${pid[worker2]}" "${pid[coord]}" "${pid[cloud]}"
wait 2>/dev/null || true
if [ "$failed" != 0 ]; then
	echo "reach: a role-deployment player failed; see $run/player*.out" >&2
	exit 1
fi

# --- The benchmark: all four workloads, traced. ---
step "bench (four workloads, --trace 1)"
for w in live-steady live-churn sim-figures sim-scale; do
	quiet "$bin/cloudfog-bench" --workload "$w" --seed 2026 --seconds 20 --trace 1
done

# --- Merge and report. ---
go tool covdata textfmt -i="$out/cov" -o "$out/all.cover"
{
	head -1 "$out/all.cover"
	grep '^cloudfog/internal/' "$out/all.cover"
} >"$out/internal.cover"
go tool cover -func="$out/internal.cover" >"$out/func.txt"
awk '$NF == "0.0%" && $1 != "total:" { print $1 "\t" $2 }' "$out/func.txt" >"$out/never-entered.txt"

echo "functions of cloudfog/internal/... no binary, figure, workload or role entered:"
sed 's/^/  /' "$out/never-entered.txt"
total=$(grep -vc '^total:' "$out/func.txt")
never=$(wc -l <"$out/never-entered.txt")
echo "reach: $((total - never)) of $total functions entered, $never never; statements reached: $(awk '$1 == "total:" { print $NF }' "$out/func.txt")"
echo "reach: list in .reach/never-entered.txt, per-function coverage in .reach/func.txt"

if [ -s "$out/unlinked.txt" ]; then
	echo "reach: FAIL — internal packages linked by no binary under cmd/ or bench/:" >&2
	sed 's/^/  /' "$out/unlinked.txt" >&2
	exit 1
fi
echo "reach: every internal package ($(wc -l <"$out/packages.txt")) is linked by a cmd/ or bench/ binary"

# --- The allow-list: the never-entered list is scripts/reach-allow.txt, no
# more and no less. Names are "file function" without line numbers, so moving
# code does not move the list; comm pairs repeated lines (two methods of one
# name in one file) one for one. ---
sed -E 's/:[0-9]+:\t/ /' "$out/never-entered.txt" | sort >"$out/never-names.txt"
grep -v '^#' scripts/reach-allow.txt | sort >"$out/allowed.txt"
comm -23 "$out/never-names.txt" "$out/allowed.txt" >"$out/unlisted.txt"
comm -13 "$out/never-names.txt" "$out/allowed.txt" >"$out/stale.txt"
if [ -s "$out/unlisted.txt" ] || [ -s "$out/stale.txt" ]; then
	echo "reach: FAIL — the never-entered list is not scripts/reach-allow.txt (DESIGN.md §18)" >&2
	sed 's/^/  never entered, not in the file: /' "$out/unlisted.txt" >&2
	sed 's/^/  in the file, now entered or gone: /' "$out/stale.txt" >&2
	exit 1
fi
echo "reach: the never-entered list is scripts/reach-allow.txt ($never names)"
