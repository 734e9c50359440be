#!/usr/bin/env bash
# Bounds self-test: a planted slowdown in one layer must trip the gate on
# the metric it affects, and a clean re-run of the same code must pass.
# The plant is a calibrated spin of 10% of every EMBSAN-KASAN Exec in the
# replay loop, so slowdown_kasan must read as a regression.
# Run from the repository root:
#
#   bash perfbench/selftest.sh [seed...]
set -euo pipefail
seeds=("$@")
[ ${#seeds[@]} -gt 0 ] || seeds=(1 2 3)
dir=.bench_build/selftest
mkdir -p "$dir"
rm -f "$dir"/*.jsonl
run() { bash perfbench/run.sh --workload replay-overhead --seconds 10 --trace 0 "$@" | tail -1; }
for s in "${seeds[@]}"; do
	run --seed "$s" >>"$dir/base.jsonl"
	run --seed "$s" --plant 0.10 >>"$dir/planted.jsonl"
	run --seed "$s" >>"$dir/clean.jsonl"
done
echo "== planted 10% EMBSAN-KASAN Exec slowdown vs base"
planted=$(bash perfbench/run.sh gate BENCHMARK.json "$dir/base.jsonl" "$dir/planted.jsonl" || true)
echo "$planted"
echo "== clean re-run vs base"
clean=$(bash perfbench/run.sh gate BENCHMARK.json "$dir/base.jsonl" "$dir/clean.jsonl" || true)
echo "$clean"
if ! grep -q '^slowdown_kasan .*REGRESSION' <<<"$planted"; then
	echo "selftest FAILED: the planted slowdown was not flagged on slowdown_kasan"
	exit 1
fi
if grep -q 'REGRESSION\|FAIL' <<<"$clean"; then
	echo "selftest FAILED: the clean re-run was flagged"
	exit 1
fi
echo "selftest passed"
