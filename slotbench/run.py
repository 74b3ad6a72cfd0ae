#!/usr/bin/env python3
"""Slot-level end-to-end benchmark for the SORA per-slot API.

Run from the repository root:

    python3 slotbench/run.py --workload fig5-k4 --seed 1 --seconds 20 --trace 0

Builds slotbench/ (a CMake project over the repository's src/) in Release
under .bench_build/, runs the slotbench binary, checks its outputs, and
prints one JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
reports the per-layer metrics. Exits 1 on any correctness failure (after
printing the result line) and 2 when the benchmark cannot run at all.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import metrics as m  # noqa: E402

WORKLOADS = ("fig5-k4", "scaled-32x256", "serve-k1")
# Knobs that would change what is measured; never inherited by a run.
SCRUBBED_ENV = (
    "SORA_METRICS", "SORA_METRICS_FORMAT", "SORA_METRICS_PORT", "SORA_TRACE",
    "SORA_TRACE_MAX_EVENTS", "SORA_SLOT_BUDGET_MS", "SORA_INCIDENT_DIR",
    "SORA_THREADS", "SORA_LOG_LEVEL", "SORA_LOG_TRACE",
)
# Episode costs within one run and across pool sizes must agree this well.
COST_RTOL = 1e-9
# Per workload: nominal seconds of one episode on a 4-vCPU host, the fewest
# episodes a run makes, and the pool size of the timed runs. A run makes
# max(min_episodes, round(seconds / nominal)) episodes, all of them however
# fast the host is, so the amount of work is a function of --seconds alone.
# Only scaled-32x256 fans work out to the pool; the other two time a
# one-thread pool, which is steadier on a shared host (their traced run
# still reports util.pool.speedup_1t).
EPISODES = {
    "fig5-k4": {"nominal_s": 5.0, "min_episodes": 3, "pool": 1},
    "scaled-32x256": {"nominal_s": 17.0, "min_episodes": 2, "pool": 4},
    "serve-k1": {"nominal_s": 2.6, "min_episodes": 3, "pool": 1},
}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def die(msg):
    log("slotbench: " + msg)
    sys.exit(2)


def build_dir():
    return ROOT / ".bench_build" / "slotbench"


def build():
    """Configure (once) and build the slotbench binary; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die("no repository sources next to %s; run from a full checkout" % BENCH_DIR)
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    configure = [
        "cmake", "-S", str(BENCH_DIR), "-B", str(out),
        "-DCMAKE_BUILD_TYPE=Release", "-DSORA_NATIVE=OFF",
    ]
    for cmd in (configure, ["cmake", "--build", str(out), "--target", "slotbench", "-j", jobs]):
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            die("build failed: " + " ".join(cmd))
    return out / "slotbench"


def git_sha():
    """HEAD of the checkout when it is a git work tree, read without
    leaving the checkout; "unknown" otherwise."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_binary(binary, args, threads, workdir):
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["SORA_THREADS"] = str(threads)
    cmd = [str(binary)] + args + ["--threads", str(threads), "--snapshot-dir", workdir]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=170)
    if proc.returncode != 0:
        log(proc.stderr[-4000:])
        die("slotbench exited %d: %s" % (proc.returncode, " ".join(cmd)))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def verify(doc, workload, errors):
    """Checks that hold for every run document; appends to `errors`."""
    errors.extend("%s: %s" % (workload, e) for e in doc["errors"])
    costs = [e["cost"] for e in doc["episodes"]]
    if any(not m.costs_agree(c, costs[0], COST_RTOL) for c in costs):
        errors.append("%s: episode costs differ: %s" % (workload, costs))
    if workload == "serve-k1":
        bad = m.fallback_mismatches(doc["slots"])
        if bad:
            errors.append("serve-k1: fallback slots differ from the fault schedule at %s"
                          % bad[:10])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args()

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads((BENCH_DIR / "reference.json").read_text())
    binary = build()

    nproc = os.cpu_count() or 1
    plan = EPISODES[opts.workload]
    full_pool = min(4, nproc)
    threads = min(plan["pool"], nproc)
    base = ["--workload", opts.workload, "--seed", str(opts.seed)]
    cert = ["--certificate"] if opts.workload == "fig5-k4" else []
    errors = []
    out_dir = ROOT / ".bench_build" / "slotbench-out"
    out_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as work:
        if opts.trace == 0:
            episodes = max(plan["min_episodes"], round(opts.seconds / plan["nominal_s"]))
            main_doc = run_binary(
                binary, base + ["--episodes", str(episodes)] + cert, threads, work)
            docs = [main_doc]
        else:
            # One episode each: untraced at full pool size, untraced on a
            # one-thread pool, and traced at full pool size. Per-layer
            # figures carry no bound.
            trace_path = out_dir / ("trace-%s.json" % opts.workload)
            once = base + ["--episodes", "1"]
            untraced = run_binary(binary, once + cert, full_pool, work)
            single = run_binary(binary, once, 1, work)
            main_doc = run_binary(binary, once + ["--traced", "--trace-out", str(trace_path)],
                                  full_pool, work)
            trace = json.loads(trace_path.read_text())
            docs = [untraced, single, main_doc]
            if not m.costs_agree(single["episodes"][0]["cost"],
                                 untraced["episodes"][0]["cost"], COST_RTOL):
                errors.append("total_cost differs between pool sizes 1 and %d" % full_pool)
        for doc in docs:
            verify(doc, opts.workload, errors)

    cost = main_doc["episodes"][0]["cost"]
    ref_error = m.check_reference(opts.workload, opts.seed, cost, reference)
    if ref_error:
        errors.append(ref_error)

    if opts.trace == 0:
        values, context = m.end_to_end(main_doc)
        units = {e["name"]: e["unit"] for e in declared["end_to_end"]}
    else:
        values, reconcile = m.per_layer(main_doc, trace, untraced, single)
        if reconcile > 0.05:
            errors.append("barrier time does not reconcile with the registry: %.1f%%"
                          % (100 * reconcile))
        units = {e["name"]: e["unit"] for e in declared["per_layer"]}
        context = {}
    names = set(units)
    bad_names = m.check_names(values, names)
    missing = sorted(names - set(values))
    if bad_names or missing:
        errors.append("metric names not matching BENCHMARK.json: %s / missing %s"
                      % (bad_names, missing))

    attempted = sum(len(d["slots"]["step_ms"]) for d in docs)
    failed = sum(m.failed_slots(d["slots"]) for d in docs)
    host = dict(main_doc["host"], git=git_sha())
    print("slotbench %s seed=%d trace=%d host: nproc=%d threads=%d native=%s build=%s "
          "compiler=%s git=%s" % (opts.workload, opts.seed, opts.trace, nproc,
                                  host["threads"], host["native"], host["build_type"],
                                  host["compiler"], host["git"]))
    print("  shape: %(tier2)d x %(tier1)d, %(edges)d edges, %(episode_slots)d slots/episode"
          % main_doc["shape"])
    for name in sorted(values):
        extra = context.get(name)
        print("  %-36s %14.6g %-8s%s" % (name, values[name], units.get(name, ""),
                                         "  (%s)" % json.dumps(extra) if extra else ""))
    for key in sorted(k for k in context if k not in values):
        print("  %-36s %14s" % (key, json.dumps(context[key])))
    print("  attempted=%d failed=%d" % (attempted, failed))
    for e in errors[:20]:
        print("  ERROR " + e)

    correct = not errors and failed == 0
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in sorted(names & set(values))},
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
