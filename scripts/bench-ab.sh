#!/usr/bin/env bash
# A/B the benchmark between a parent revision and the working tree, the
# way a claimed gain has to be measured (ROADMAP, "Claiming a speed-up"):
#
#   scripts/bench-ab.sh <parent-rev> <workload> <pairs>
#
# Checks <parent-rev> out beside the build outputs, then for seed n = 1…pairs
# runs bench/stgqbench/run.sh --seed n once on each side, one right after
# the other, the parent first on odd seeds and the change first on even
# ones, and finishes with "stgqbench compare". Both runs.jsonl stay under
# .bench_build/ab/<workload>/{parent,change}/; the parent checkout is
# removed however the script ends. Exit status is compare's (1: regressed).
set -euo pipefail
[ $# -eq 3 ] || { echo "usage: $0 <parent-rev> <workload> <pairs>" >&2; exit 2; }
rev=$1 workload=$2 pairs=$3
case $pairs in ''|*[!0-9]*|0) echo "bench-ab: pairs must be a positive integer, got '$pairs'" >&2; exit 2 ;; esac
root=$(git rev-parse --show-toplevel)
commit=$(git -C "$root" rev-parse --verify "$rev^{commit}")
ab="$root/.bench_build/ab/$workload"
src="$ab/parent-src"
rm -rf "$ab"
mkdir -p "$ab/parent" "$ab/change" "$src"
# A plain export of the parent's committed files, not a registered git
# worktree: there is then nothing in .git to unregister, and even a kill -9
# leaves only an ignored directory behind.
trap 'rm -rf "$src"' EXIT
trap 'exit 130' INT TERM
git -C "$root" archive "$commit" | tar -x -C "$src"

run() { # run <side> <checkout> <seed>
	echo "== $workload seed $3: $1" >&2
	(cd "$2" && bash bench/stgqbench/run.sh --workload "$workload" --seed "$3" --trace 0 --out "$ab/$1")
}
for n in $(seq 1 "$pairs"); do
	if [ $((n % 2)) -eq 1 ]; then
		run parent "$src" "$n"; run change "$root" "$n"
	else
		run change "$root" "$n"; run parent "$src" "$n"
	fi
done
"$root/.bench_build/stgqbench/bin/stgqbench" compare "$ab/parent/runs.jsonl" "$ab/change/runs.jsonl"
