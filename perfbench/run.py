#!/usr/bin/env python3
"""End-to-end benchmark of the adaptive scheduling + DVFS pipeline.

Usage (from the repository root):

    python3 perfbench/run.py --workload campaign-calm --seed 1 \
        --seconds 40 --trace 0

Builds perfbench/ (and the library sources it compiles) into
.bench_build/ on first use, then runs the workload through the
program's entry points, campaign::Campaign::Run or serve::Server::Run.

--trace 0 runs a fixed number of repetitions, each in its own process
on the spec file generated for its repetition seed, and reports the
end-to-end metrics as medians over the repetitions. --trace 1 runs one
traced replay of the first repetition's input, prints the per-layer
"where the time went" table, writes a Chrome trace_event file next to
the build and reports the per-layer metrics.

Every run checks the program's outputs: oracle validations, the sample
count beyond each percentile, the replay's reproduction of the untraced
run, and that the deterministic report of a repetition seed never
changes between runs of the same binary. The last stdout line is one
JSON object with the keys correct, attempted, failed and metrics.
Exit status is 0 only for a correct run.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "actg_perfbench"
WORK = BUILD / "work"
DIGESTS = BUILD / "digests.json"

# Wall seconds one repetition takes on a 4-vCPU host; a run of
# --seconds S makes round(S / REP_SECONDS) repetitions. The count is a
# function of S only, so a faster commit measures the same inputs.
REP_SECONDS = {"campaign-calm": 1.0, "campaign-squall": 20.0,
               "serve-fleet": 2.0}
MIN_REPS = 3
# The latency record each workload reports as latency_p99_ms (and the
# unbounded latency_p50_ms), and what it measures. campaign-calm excludes exact
# cache hits because its hit share (35-66 % per repetition) moves the
# all-request median between the ~5 us hit cluster and the compute
# cluster; campaign-squall has too few computed requests per repetition
# for a p99 and keeps every request, as Campaign::RescheduleLatency.
LATENCY = {
    "campaign-calm": ("latency", "computed reschedule requests"),
    "campaign-squall": ("resched_all", "reschedule requests, exact hits "
                        "included"),
    "serve-fleet": ("latency", "SLA0 dispatch slices"),
}
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def log(msg=""):
    print(msg, flush=True)


def build():
    BUILD.mkdir(exist_ok=True)
    build_log = BUILD / "build.log"
    with open(build_log, "w") as out:
        if not (BUILD / "CMakeCache.txt").exists():
            rc = subprocess.call(
                ["cmake", "-S", str(HERE), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                stdout=out, stderr=subprocess.STDOUT)
            if rc != 0:
                raise BenchError(f"cmake configure failed, see {build_log}")
        rc = subprocess.call(["cmake", "--build", str(BUILD), "-j", "4"],
                             stdout=out, stderr=subprocess.STDOUT)
        if rc != 0:
            raise BenchError(f"build failed, see {build_log}")


def child(*args):
    """Runs the harness binary; returns its last stdout line as JSON."""
    proc = subprocess.run([str(BINARY), *map(str, args)], capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"actg_perfbench {' '.join(map(str, args))} exited "
                         f"{proc.returncode}: {proc.stderr.strip()[-800:]}")
    if proc.stderr.strip():
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else {}


def rep_seed(seed, k):
    # Generators derive model seeds as seed + i (i < 4 for campaign model
    # groups, i < 512 for serve tenants): spacing repetitions 1000 apart
    # gives every repetition structures of its own.
    return seed * 1_000_000 + 1000 * k + 1


def write_spec(workload, seed, size):
    WORK.mkdir(parents=True, exist_ok=True)
    path = WORK / f"{workload}-{size}-{seed}.spec"
    extra = ["tiny"] if size == "tiny" else []
    child("spec", workload, seed, path, *extra)
    return path


class DigestStore:
    """Deterministic-report digests per (binary, workload, size, seed),
    kept across runs in the build directory: a repetition seed whose
    report changes between runs of one binary fails the run."""

    def __init__(self):
        h = hashlib.sha256()
        with open(BINARY, "rb") as f:
            for block in iter(lambda: f.read(1 << 20), b""):
                h.update(block)
        self.binary = h.hexdigest()[:16]
        try:
            self.known = json.loads(DIGESTS.read_text())
        except (OSError, ValueError):
            self.known = {}
        self.dirty = False

    def check(self, workload, size, seed, digest):
        key = f"{self.binary}:{workload}:{size}:{seed}"
        old = self.known.get(key)
        if old is None:
            self.known[key] = digest
            self.dirty = True
            return None
        if old != digest:
            return (f"{workload} seed {seed}: deterministic report digest "
                    f"{digest} differs from {old} of an earlier run")
        return None

    def save(self):
        if self.dirty:
            tmp = DIGESTS.with_suffix(".tmp")
            tmp.write_text(json.dumps(self.known, indent=1, sort_keys=True))
            os.replace(tmp, DIGESTS)


def samples_beyond(n, q):
    """Samples strictly above the nearest-rank q-quantile of n."""
    return n - max(1, math.ceil(q * n))


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def probe():
    return child("probe")["probe_ms"]


def untraced(args, store):
    reps = max(MIN_REPS, round(args.seconds / REP_SECONDS[args.workload]))
    seeds = [rep_seed(args.seed, k) for k in range(reps)]
    probe_start = probe()
    records, problems = [], []
    for s in seeds:
        spec = write_spec(args.workload, s, args.size)
        r = child("run", args.workload, spec)
        records.append(r)
        if r["oracle_failed"]:
            problems.append(f"seed {s}: {r['oracle_failed']} of "
                            f"{r['oracle_checked']} oracle validations failed")
        lat = r[LATENCY[args.workload][0]]
        beyond = samples_beyond(lat["samples"], 0.99)
        if beyond < 10:
            problems.append(f"seed {s}: latency p99 has {beyond} samples "
                            f"beyond it (of {lat['samples']}); at least 10 "
                            "are needed")
        msg = store.check(args.workload, args.size, s, r["report_digest"])
        if msg:
            problems.append(msg)
    probe_end = probe()

    def per_rep(f):
        return [f(r) for r in records]

    def latency(r):
        return r[LATENCY[args.workload][0]]

    execs = sum(r["executions"] for r in records)
    energy = sum(r["energy_mj"] for r in records)
    misses = sum(r["deadline_misses"] for r in records)
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    series = {
        "execs_per_s": ("1/s",
                        per_rep(lambda r: r["executions"] / r["run_s"])),
        "latency_p99_ms": ("ms", per_rep(lambda r: latency(r)["p99_ms"])),
        "peak_rss_mb": ("MB", per_rep(lambda r: r["peak_rss_mb"])),
        "energy_mj_per_exec": ("mJ", [energy / execs]),
        "setup_s": ("s", per_rep(lambda r: r["setup_s"])),
    }
    metrics = {name: {"value": statistics.median(v), "unit": unit}
               for name, (unit, v) in series.items()}
    # The median is printed but carries no bound: on campaign-calm host
    # speed alone moved it by 8-11 % between two runs of identical
    # inputs, and its spread over ten seeds was 18 %.
    p50 = per_rep(lambda r: latency(r)["p50_ms"])

    first = records[0]
    log(f"perfbench {args.workload} seed {args.seed}: {reps} repetitions, "
        f"one process each, repetition seeds {seeds[0]}..{seeds[-1]}")
    log(f"  why:  {first['why']}")
    log(f"  loop: {first['loop']}")
    log(f"  host probe (fixed loop, diagnostic only): {probe_start:.1f} ms "
        f"at start, {probe_end:.1f} ms at end")
    log(f"  {'metric':<20} {'unit':<5} {'median':>12} {'q1':>12} "
        f"{'q3':>12}  samples")
    lat_n = per_rep(lambda r: latency(r)["samples"])
    notes = {
        "execs_per_s": f"{reps} reps x {first['executions']} CTG executions",
        "latency_p99_ms": f"{reps} reps x {min(lat_n)}-{max(lat_n)} "
                          f"{LATENCY[args.workload][1]}, >= "
                          f"{min(samples_beyond(n, 0.99) for n in lat_n)} "
                          "beyond p99 in each",
        "peak_rss_mb": f"{reps} processes",
        "energy_mj_per_exec": f"{execs} executions (deterministic)",
        "setup_s": f"{reps} reps x median of {first['setup_reps']} "
                   "parse+construct",
    }
    rows = dict(series, latency_p50_ms=("ms", p50))
    notes["latency_p50_ms"] = "same samples; printed, not bounded"
    for name, (unit, values) in rows.items():
        q1, q3 = quartiles(values)
        log(f"  {name:<20} {unit:<5} {statistics.median(values):>12.6g} "
            f"{q1:>12.6g} {q3:>12.6g}  {notes[name]}")
    log(f"  deadline_miss_rate {misses / execs:.6g} ({misses} of {execs} "
        "executions, deterministic)")
    unit = ("tenants shed or quarantined" if "serve" in args.workload
            else "app instances quarantined")
    log(f"  failed_frac {failed / attempted:.6g} ({failed} of {attempted} "
        f"{unit})")
    if "serve" in first:
        sv = first["serve"]
        log(f"  serve: {sv['rounds']} rounds, {sv['deferred_rounds']} "
            f"deferred; slice p99 SLA1 {sv['sla1']['p99_ms']:.6g} ms "
            f"(n={sv['sla1']['samples']}), SLA2 {sv['sla2']['p99_ms']:.6g} ms "
            f"(n={sv['sla2']['samples']}), first rep")
    oracle = sum(r["oracle_checked"] for r in records)
    log(f"  oracle validations {oracle}, failed "
        f"{sum(r['oracle_failed'] for r in records)}")
    if "resched_all" in first:
        all_p50 = statistics.median(
            per_rep(lambda r: r["resched_all"]["p50_ms"]))
        all_p99 = statistics.median(
            per_rep(lambda r: r["resched_all"]["p99_ms"]))
        log(f"  every reschedule request incl. exact hits "
            f"(Campaign::RescheduleLatency): p50 {all_p50:.6g} ms, "
            f"p99 {all_p99:.6g} ms, {first['resched_all']['samples']} "
            "requests in the first rep")
    return metrics, attempted, failed, problems


def fmt(x):
    return f"{x:.6g}"


def traced(args, store):
    seed = rep_seed(args.seed, 0)
    spec = write_spec(args.workload, seed, args.size)
    trace_path = WORK / f"{args.workload}-{args.size}-trace.json"
    r = child("trace", args.workload, spec, trace_path)
    problems = []
    if r["mismatches"]:
        problems.append(f"replay reproduced the untraced run with "
                        f"{r['mismatches']} mismatches: "
                        + "; ".join(r["mismatch_examples"]))
    msg = store.check(args.workload, args.size, seed, r["report_digest"])
    if msg:
        problems.append(msg)
    validator = ROOT / "tools" / "validate_trace.py"
    schema = ROOT / "docs" / "trace_event.schema.json"
    check = subprocess.run([sys.executable, str(validator), str(trace_path),
                            str(schema)], capture_output=True, text=True,
                           timeout=CHILD_TIMEOUT_S)
    if check.returncode != 0:
        problems.append("trace_event file rejected: "
                        + (check.stdout + check.stderr).strip()[-800:])

    m = {k: v["value"] for k, v in r["metrics"].items()}
    wall_ms = 1e3 * r["jobs"] * r["pass_a_s"]
    log(f"perfbench {args.workload} seed {args.seed}: traced replay of "
        f"repetition seed {seed}")
    log(f"  untraced Run() {fmt(r['run_s'])} s; pass A (instances replayed "
        f"with spans) {fmt(r['pass_a_s'])} s; pass B (reschedules "
        f"re-issued) {fmt(r['pass_b_s'])} s; {r['jobs']} worker(s)")
    log("  where the time went (share = busy / (workers x wall of the "
        "span's pass))")
    log(f"  {'span':<22} {'calls':>8} {'busy_ms':>11} {'self_ms':>11} "
        f"{'p50_ms':>9} {'p99_ms':>9} {'share':>7}")
    pass_b_ms = 1e3 * r["jobs"] * r["pass_b_s"]
    reissued = {"adaptive.resched", "runtime.cache.lookup", "sched.dls",
                "dvfs.enumerate", "dvfs.stretch"}
    for name, s in sorted(r["layers"].items(),
                          key=lambda kv: -kv[1]["busy_ms"]):
        base = pass_b_ms if name in reissued else wall_ms
        low_n = " (n<1000)" if s["calls"] < 1000 else ""
        log(f"  {name:<22} {s['calls']:>8} {s['busy_ms']:>11.2f} "
            f"{s['self_ms']:>11.2f} {s['p50_ms']:>9.4f} {s['p99_ms']:>9.4f} "
            f"{s['busy_ms'] / base:>7.1%}{low_n}")
    resched = r["reissue_resched_ms"]
    dvfs = m["dvfs.enumerate.ms"] + m["dvfs.stretch.ms"]
    log(f"  re-issued reschedule time {fmt(resched)} ms: dvfs "
        f"{dvfs / resched:.1%}, sched.dls {m['sched.dls.ms'] / resched:.1%}, "
        f"degraded requests {m['adaptive.degraded.share']:.1%}")
    log(f"  dvfs.paths.max {int(m['dvfs.paths.max'])} at {r['paths_max_at']}; "
        f"dvfs.rss_rise_mb {fmt(m['dvfs.rss_rise_mb'])}")
    log(f"  tiers exact {int(m['adaptive.tier.exact'])} warm_prior "
        f"{int(m['adaptive.tier.warm_prior'])} warm_cache "
        f"{int(m['adaptive.tier.warm_cache'])} full "
        f"{int(m['adaptive.tier.full'])} fallbacks "
        f"{int(m['adaptive.tier.fallbacks'])}; warm useful "
        f"{m['adaptive.warm.useful_ratio']:.3f}; cache hit_ratio "
        f"{m['runtime.cache.hit_ratio']:.4f} of "
        f"{int(m['runtime.cache.lookups'])} lookups, "
        f"{int(m['runtime.cache.evictions'])} evictions")
    log(f"  pool busy_frac {m['runtime.pool.busy_frac']:.3f}; trace overhead "
        f"{m['bench.trace_overhead_frac']:+.1%} (pass A / untraced - 1); "
        f"coverage {m['bench.trace_coverage_frac']:.1%} of pass A inside "
        "top-level spans")
    log(f"  replay mismatches {r['mismatches']}; trace {trace_path.name}: "
        f"{'valid' if check.returncode == 0 else 'INVALID'}")
    return r["metrics"], r["attempted"], r["failed"], problems


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(REP_SECONDS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny inputs, for the self-test only")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    try:
        build()
        store = DigestStore()
        run = traced if args.trace else untraced
        metrics, attempted, failed, problems = run(args, store)
        store.save()
    except (BenchError, subprocess.TimeoutExpired, OSError, KeyError,
            ValueError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    for p in problems:
        print(f"perfbench: CHECK FAILED: {p}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
