#!/usr/bin/env bash
# The DSPlacer benchmark. Run it from the root of a checkout:
#
#   bash benchmark/run.sh --workload table2-mini --seed 1 --seconds 20 --trace 0
#   bash benchmark/run.sh --smoke
#
# --trace 0 runs the end-to-end runner (cmd/e2e), --trace 1 the traced
# runner (cmd/trace), which also writes its spans as Chrome trace-event
# JSON to <build dir>/trace/<workload>-seed<seed>.json. --smoke runs one op
# of every workload through both runners.
#
# Both programs are built from the checkout's source. The build directory
# is $CARGO_TARGET_DIR when set, else .bench_build; the Go build cache, its
# temporary files and Go's config directory live there too, so a run
# writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
bench=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/bin" "$out/trace" "$out/tmp"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

build() { (cd "$bench" && go build -o "$out/bin/$1" "./cmd/$1"); }
model=$bench/model/gcn-mini-auto.json

if [[ ${1:-} == --smoke ]]; then
	build e2e
	build trace
	for w in table2-mini dsp-dense extract-gcn serve-mix; do
		for runner in e2e trace; do
			line=$("$out/bin/$runner" --smoke --workload "$w" --model "$model" | tail -n 1)
			if [[ $line != *'"correct":true'* ]]; then
				echo "smoke $w ($runner) failed: $line" >&2
				exit 1
			fi
		done
		echo "smoke $w: ok"
	done
	exit 0
fi

trace=0 workload="" seed=""
args=("$@")
while (($#)); do
	case $1 in
	--trace) trace=${2:-} ;;
	--trace=*) trace=${1#*=} ;;
	--workload) workload=${2:-} ;;
	--workload=*) workload=${1#*=} ;;
	--seed) seed=${2:-} ;;
	--seed=*) seed=${1#*=} ;;
	esac
	shift
done

case $trace in
0)
	build e2e
	exec "$out/bin/e2e" "${args[@]}" --model "$model"
	;;
1)
	build trace
	exec "$out/bin/trace" "${args[@]}" --model "$model" --trace-out "$out/trace/$workload-seed$seed.json"
	;;
*)
	echo "run.sh: --trace must be 0 or 1, got '$trace'" >&2
	exit 2
	;;
esac
