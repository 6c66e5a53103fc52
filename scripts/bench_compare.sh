#!/usr/bin/env bash
# Same-machine A/B of the benchmark of record: the working tree against a
# base revision.
#
#   scripts/bench_compare.sh BASE WORKLOAD SEEDS
#   make bench-compare BASE=HEAD~1 WORKLOAD=person316k SEEDS=111-120
#
# BASE is checked out with `git worktree` under .bench_build/ (gitignored)
# and kept there for later comparisons; `git worktree remove` drops it.
# Every seed of the range SEEDS (a-b, at least ten seeds) runs once on each
# side for 25 seconds, the run length of the benchmark of record, and the
# side that goes first alternates from seed to seed so a slow period on a
# shared machine hits both sides alike. Records and per-run logs land in
# .bench_build/compare/; the last step prints `bash bench/run.sh compare`
# over them, which exits 1 on any regression.
set -euo pipefail

usage() {
	echo "usage: $0 BASE WORKLOAD SEEDS(a-b)" >&2
	exit 2
}
[ $# -eq 3 ] || usage
base=$1 workload=$2 seeds=$3
lo=${seeds%-*} hi=${seeds#*-}
[[ $lo =~ ^[0-9]+$ && $hi =~ ^[0-9]+$ ]] || usage
if ((hi - lo + 1 < 10)); then
	echo "$0: SEEDS=$seeds gives $((hi - lo + 1)) pairs; compare needs at least ten" >&2
	exit 2
fi

root=$(git rev-parse --show-toplevel)
cd "$root"
rev=$(git rev-parse --verify "$base^{commit}")
build=$root/.bench_build
tree=$build/base-$rev
if [ ! -d "$tree" ]; then
	git worktree add --detach "$tree" "$rev" >/dev/null
fi

out=$build/compare/$workload-${rev:0:12}-$seeds
rm -rf "$out"
mkdir -p "$out"

# run SIDE DIR SEED: one benchmark run of the checkout at DIR, built into
# its own directory so the two sides never share a binary.
run() {
	local side=$1 dir=$2 seed=$3
	echo "seed $seed: $side" >&2
	(cd "$dir" && CARGO_TARGET_DIR=$build/out-$side bash bench/run.sh \
		--workload "$workload" --seed "$seed" --seconds 25 --trace 0 \
		--record "$out/$side.jsonl") >"$out/$side-$seed.log" 2>&1
}

for ((seed = lo; seed <= hi; seed++)); do
	if (((seed - lo) % 2 == 0)); then
		run base "$tree" "$seed"
		run change "$root" "$seed"
	else
		run change "$root" "$seed"
		run base "$tree" "$seed"
	fi
done

CARGO_TARGET_DIR=$build/out-change bash bench/run.sh compare "$out/base.jsonl" "$out/change.jsonl"
