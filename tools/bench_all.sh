#!/usr/bin/env bash
# Build every bench under bench/ in Release, run each with --json, and
# write one trajectory point to BENCH_18.json at the repository root:
#
#     {"schema":"cheri.bench_all.v1","src_lines":<lines under src/>,
#      "benches":[<one cheri.bench.v1 envelope per bench>, ...]}
#
# Simulated numbers are deterministic; host-time ones (host_ns, the
# host-time metrics of the measurement benches) vary by machine.  A
# bench that exits non-zero (a failed Always gate or a failed setup)
# stops the script before the file is written.
#   bash tools/bench_all.sh
set -euo pipefail

src_dir="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="$src_dir/build-release"
out="$src_dir/BENCH_18.json"
# Every bench/<name>.cc is one bench target of the same name.
benches=()
for f in "$src_dir"/bench/*.cc; do
    benches+=("$(basename "$f" .cc)")
done

cmake -S "$src_dir" -B "$build_dir" -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$build_dir" -j "$(nproc)" --target "${benches[@]}" >/dev/null

src_lines=$(find "$src_dir/src" -type f \( -name '*.cc' -o -name '*.h' \) \
    -exec cat {} + | wc -l)
{
    printf '{"schema":"cheri.bench_all.v1","src_lines":%d,"benches":[\n' \
        "$src_lines"
    sep=""
    for b in "${benches[@]}"; do
        printf '%s' "$sep"
        "$build_dir/bench/$b" --json
        sep=","
    done
    printf ']}\n'
} > "$out.tmp"
mv "$out.tmp" "$out"
echo "bench_all: ${#benches[@]} reports in $out"
