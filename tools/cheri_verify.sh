#!/usr/bin/env bash
# Strict verification pass: configure a scratch build tree with -Werror
# and Address/UndefinedBehavior sanitizers, build everything, and run
# the full test suite.  Exits non-zero on any warning, sanitizer
# report, or test failure.
set -euo pipefail

src_dir="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${CHERI_VERIFY_BUILD_DIR:-$src_dir/build-verify}"

# Raw-assert lint: kernel, memory, machine-model, checking,
# observability and BOdiagsuite code must fail through the structured
# panic path
# (CHERI_KASSERT -> flight-recorder capture + snapshot + transactional
# reset), never through a host abort; benches, tools and examples
# report a failure on stderr and exit non-zero.  The panic sink's own
# abort() fallback (src/os/panic.h) and compile-time static_asserts are
# the only legitimate exceptions.
if grep -rnE '(^|[^_[:alnum:]])(assert|abort)\(' \
        "$src_dir/src/os" "$src_dir/src/mem" "$src_dir/src/machine" \
        "$src_dir/src/check" "$src_dir/src/obs" "$src_dir/src/bodiag" \
        "$src_dir/bench" \
        "$src_dir/tools" "$src_dir/examples" \
        --include='*.cc' --include='*.cpp' --include='*.h' \
    | grep -v 'CHERI_KASSERT' | grep -v 'static_assert' \
    | grep -v 'src/os/panic\.h'; then
    echo "cheri_verify: raw assert()/abort() in src/os, src/mem," \
         "src/machine, src/check, src/obs, src/bodiag, bench, tools" \
         "or examples" \
         "(use CHERI_KASSERT, or report and exit non-zero)" >&2
    exit 1
fi

cmake -S "$src_dir" -B "$build_dir" \
    -DCHERI_WERROR=ON -DCHERI_SANITIZE=ON \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$build_dir" -j "$(nproc)"
ctest --test-dir "$build_dir" --output-on-failure -j "$(nproc)"
# Constrained-memory pass: re-run the pressure and stress suites with
# deliberately small frame/slot budgets so reclaim and OOM paths are
# exercised under the sanitizers too.
CHERI_TEST_FRAME_BUDGET=48 CHERI_TEST_SLOT_BUDGET=128 \
    ctest --test-dir "$build_dir" --output-on-failure \
        -R 'Pressure|Stress' -j "$(nproc)"
# Hardening gates under constrained memory too: the deadlock watchdog
# and panic/machine-check paths must behave identically when reclaim
# and OOM pressure interleave with parked contexts.
CHERI_TEST_FRAME_BUDGET=48 CHERI_TEST_SLOT_BUDGET=128 \
    ctest --test-dir "$build_dir" --output-on-failure \
        -R 'Hardening' -j "$(nproc)"
# Smoke the unified-access-path bench: --check fails unless the TLB
# fast path beats the walk path on sequential access AND the
# constrained-memory phase completes with live frames and used slots
# never exceeding their budgets.
"$build_dir/bench/vm_micro" --json --check
# Tighter-than-default budgets, still feasible: the 4x working set
# needs at least (pages - frames) slots to complete.
"$build_dir/bench/vm_micro" --json --check --frames 48 --slots 160
# Differential ABI fuzzer + invariant oracle (src/check): a fixed-seed
# corpus must show zero mips64/CheriABI divergences and zero oracle
# violations, checked at every syscall boundary — first unconstrained,
# then under small frame/slot budgets so the reclaim and swap paths are
# exercised under the oracle too (abi_fuzz reads the budget env vars).
"$build_dir/tools/abi_fuzz" --seed 1 --cases 50 --check-every 1
CHERI_TEST_FRAME_BUDGET=48 CHERI_TEST_SLOT_BUDGET=128 \
    "$build_dir/tools/abi_fuzz" --seed 1 --cases 50 --check-every 1
# Multi-process scheduler fuzzing: 2-4 preemptively time-sliced guests
# per case running generated programs (sleep/thr_new/thr_switch in the
# mix), the invariant oracle at every slice boundary, and the
# interleaved event streams compared across ABIs.
"$build_dir/tools/abi_fuzz" --seed 1 --cases 50 --multi-proc 3
# Revocation ablation: --check fails unless cap-dirty tracking saves
# >=5x of the granule traffic on a <20%-dirty workload, every
# incremental slice respects the configured page budget, and all three
# strategies revoke exactly the planted capabilities.
"$build_dir/bench/revocation_bench" --json --check
# Scheduler bench: --check fails unless persistent execution contexts
# clear a 3x throughput floor over the old per-chunk interpreter
# re-creation pattern, scaling stays flat, and context-switch overhead
# stays bounded.
"$build_dir/bench/sched_bench" --json --check
# Blocking FD I/O bench: --check fails unless parking a would-block
# pipe reader/writer on its wait channel clears a 2x work-efficiency
# floor (bytes per retired guest step) over the O_NONBLOCK spin-retry
# pattern, the blocking arm actually parks, and the spin arm never
# does.  Run under constrained memory too: parked contexts must not
# pin pages the reclaimer needs.
"$build_dir/bench/pipe_bench" --json --check
CHERI_TEST_FRAME_BUDGET=48 CHERI_TEST_SLOT_BUDGET=128 \
    "$build_dir/bench/pipe_bench" --json --check
# Hardening bench: its --check gates bound Release host time (flight-
# recorder ring recording within its dispatch-throughput overhead
# bound, the deadlock watchdog's idle-drain scan over 32 blocked
# wakeable contexts under 1ms), so they run from a Release build of
# that one target; the sanitizer build only runs it, where the watchdog
# must still never trip on a host-wakeable park.  The Release build is
# -Werror too: GCC's Release-only diagnostics (-Wrestrict and friends)
# stay gated.
"$build_dir/bench/hardening_bench" --json
release_dir="$build_dir-release"
cmake -S "$src_dir" -B "$release_dir" -DCMAKE_BUILD_TYPE=Release \
    -DCHERI_WERROR=ON
cmake --build "$release_dir" -j "$(nproc)" --target hardening_bench
"$release_dir/bench/hardening_bench" --json --check
# Snapshot fidelity gate: fails unless every re-save of a populated
# kernel is byte-identical to the first image and saving the kernel
# restored from that image reproduces it byte for byte.
"$build_dir/bench/snapshot_bench" --json
# Replay-determinism gate: record a seeded fuzz run (fault injection +
# multi-process scheduling in the mix) and replay it from the log
# alone; cheri_replay exits non-zero on any quiescent-point
# divergence.  Run once unconstrained and once under the small
# frame/slot budgets so reclaim/OOM timelines replay exactly too.
replay_log="$build_dir/verify-replay.log"
"$build_dir/tools/cheri_replay" record --log "$replay_log" \
    --seed 1 --cases 20 --inject
"$build_dir/tools/cheri_replay" replay --log "$replay_log" --json
"$build_dir/tools/cheri_replay" record --log "$replay_log" \
    --seed 1 --cases 10 --multi-proc 3 --inject
"$build_dir/tools/cheri_replay" replay --log "$replay_log" --json
CHERI_TEST_FRAME_BUDGET=48 CHERI_TEST_SLOT_BUDGET=128 \
    "$build_dir/tools/cheri_replay" record --log "$replay_log" \
        --seed 1 --cases 20 --inject
CHERI_TEST_FRAME_BUDGET=48 CHERI_TEST_SLOT_BUDGET=128 \
    "$build_dir/tools/cheri_replay" replay --log "$replay_log" --json
rm -f "$replay_log"
echo "cheri_verify: all checks passed"
