#!/usr/bin/env python3
"""Self-test of the host-time benchmark.

    python3 hostbench/selftest.py

Run from the repository root.  Runs every workload at small size
(--seconds 1; each run still completes its minimum item count) on two
seeds, one of them held out from development, and checks that:

  * the last line is the result object with exactly the keys correct,
    attempted, failed and metrics, and no item failed;
  * --trace 0 prints every end-to-end metric of BENCHMARK.json and
    --trace 1 every per-layer metric, each with its unit;
  * the simulated-counter digest repeats across runs of one seed, and
    is the same with tracing on (tracing must not perturb simulation);
  * a deliberately failed item (--plant-failure) raises fail_ratio.

Exits 0 when every check holds.
"""

import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 90210)  # 90210 is the held-out seed
DIGEST = re.compile(r"^digest \S+ seed \d+ items \d+: ([0-9a-f]{16})$",
                    re.M)
FAIL_RATIO = re.compile(r"^fail_ratio (\S+) ", re.M)


def run(workload, seed, trace=0, plant=False):
    cmd = [sys.executable, os.path.join(ROOT, "hostbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace)]
    if plant:
        cmd.append("--plant-failure")
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    if done.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {done.returncode}:\n"
                             f"{done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    digest = DIGEST.search(done.stdout)
    ratio = FAIL_RATIO.search(done.stdout)
    if not digest or not ratio:
        raise AssertionError(f"no digest or fail_ratio line:\n{done.stdout}")
    return result, digest.group(1), float(ratio.group(1))


def check_result(result, wanted, where):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{where}: result keys {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise AssertionError(f"{where}: attempted {result['attempted']}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in wanted}
    if got != want:
        raise AssertionError(f"{where}: metrics {got} != {want}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            raise AssertionError(f"{where}: {name} value {m['value']!r}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in SEEDS:
            where = f"{workload} seed {seed}"
            try:
                first, d1, r1 = run(workload, seed)
                again, d2, _ = run(workload, seed)
                traced, d3, _ = run(workload, seed, trace=1)
                check_result(first, spec["end_to_end"], where)
                check_result(traced, spec["per_layer"], where + " traced")
                if not (first["correct"] and again["correct"] and
                        traced["correct"]) or r1 != 0:
                    raise AssertionError(f"{where}: an item failed")
                if not d1 == d2 == d3:
                    raise AssertionError(
                        f"{where}: digests differ: {d1} {d2} {d3}")
                if seed == SEEDS[0]:
                    planted, _, ratio = run(workload, seed, plant=True)
                    if planted["correct"] or planted["failed"] < 1 or \
                            ratio <= 0:
                        raise AssertionError(
                            f"{where}: planted failure not counted")
                print(f"ok   {where}: digest {d1}")
            except (AssertionError, ValueError, KeyError,
                    subprocess.TimeoutExpired) as e:
                failures += 1
                print(f"FAIL {where}: {e}")
    print("selftest:", "ok" if failures == 0 else f"{failures} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
