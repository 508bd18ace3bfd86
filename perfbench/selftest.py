#!/usr/bin/env python3
"""Fast self-test of the benchmark at tiny input sizes.

    python3 perfbench/selftest.py

For every workload run.py knows, it runs --trace 0 and --trace 1 on
tiny inputs and checks that the last stdout line is one JSON object
with exactly the keys correct, attempted, failed and metrics, and
that the metric names and units are exactly BENCHMARK.json's end_to_end
(untraced) or per_layer (traced) lists. campaign-squall at tiny size
has too few reschedule requests for a p99, so its untraced run must be
refused by the sample-count check. Last, the benchmark must exit
non-zero without a result in a directory holding only BENCHMARK.json
and perfbench/. Exit status 0 means every check passed.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

KEYS = {"correct", "attempted", "failed", "metrics"}
# Tiny inputs that still give each p99 ten samples beyond it.
TINY_P99_OK = {"campaign-calm", "serve-fleet"}


def bench(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload",
         workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def check_record(proc, expected, failures, what):
    lines = proc.stdout.strip().splitlines()
    if not lines:
        failures.append(f"{what}: no output")
        return None
    try:
        record = json.loads(lines[-1])
    except ValueError:
        failures.append(f"{what}: last line is not JSON: {lines[-1][:200]}")
        return None
    if set(record) != KEYS:
        failures.append(f"{what}: keys {sorted(record)}")
        return record
    if not isinstance(record["attempted"], int) or record["attempted"] < 1:
        failures.append(f"{what}: attempted {record['attempted']!r}")
    if not isinstance(record["failed"], int) or record["failed"] < 0:
        failures.append(f"{what}: failed {record['failed']!r}")
    got = {name: m.get("unit") for name, m in record["metrics"].items()}
    want = {m["name"]: m["unit"] for m in expected}
    if got != want:
        units = sorted(n for n in got if n in want and got[n] != want[n])
        failures.append(f"{what}: metrics differ from BENCHMARK.json: "
                        f"missing {sorted(set(want) - set(got))}, extra "
                        f"{sorted(set(got) - set(want))}, units {units}")
    for name, m in record["metrics"].items():
        value = m.get("value")
        if (not isinstance(value, (int, float)) or isinstance(value, bool)
                or not math.isfinite(value)):
            failures.append(f"{what}: {name} value {value!r}")
    return record


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    for workload in sorted(run.REP_SECONDS):
        for trace in (0, 1):
            what = f"{workload} --trace {trace}"
            proc = bench(workload, trace)
            expected = spec["per_layer"] if trace else spec["end_to_end"]
            record = check_record(proc, expected, failures, what)
            should_pass = trace == 1 or workload in TINY_P99_OK
            if should_pass:
                if proc.returncode != 0 or not (record or {}).get("correct"):
                    failures.append(f"{what}: exit {proc.returncode}: "
                                    f"{proc.stderr.strip()[-600:]}")
            elif (proc.returncode == 0 or (record or {}).get("correct")
                  or "samples beyond it" not in proc.stderr):
                failures.append(f"{what}: the p99 sample-count check did "
                                "not refuse an under-sampled run")
            print(f"selftest: {what}: exit {proc.returncode}", flush=True)

    bare = run.BUILD / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("campaign-calm", 0, cwd=bare)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        failures.append("benchmark ran without the program's sources")
    print(f"selftest: bare directory: exit {proc.returncode}", flush=True)
    shutil.rmtree(bare, ignore_errors=True)

    for f in failures:
        print(f"selftest: FAIL: {f}")
    print("selftest: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
