"""Turn the raw samples printed by the slotbench binary into metrics.

Everything here is a pure function of the binary's JSON documents, so the
rules (exact percentiles, failed-slot counting, metric names) are unit-tested
in test_metrics.py without building anything.
"""

import math
import re
import statistics

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

# A percentile is trusted only with at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10


def percentile(samples, p):
    """Exact nearest-rank percentile of `samples` (0 < p <= 1).

    Returns (value, n, beyond): the sorted sample at rank ceil(p * n), the
    sample count, and how many samples lie strictly past that rank.
    """
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0.0 < p <= 1.0:
        raise ValueError("percentile p must be in (0, 1]")
    ordered = sorted(samples)
    n = len(ordered)
    # Round before ceil so 0.9 * 100 is rank 90, not 91.
    rank = max(1, math.ceil(round(p * n, 9)))
    return ordered[rank - 1], n, n - rank


def failed_slots(slots):
    """Slots that threw, ended degraded (hold-and-repair) or broke an
    invariant. `slots` is the binary's column-wise "slots" object."""
    return sum(
        1
        for threw, degraded, invalid in zip(
            slots["threw"], slots["degraded"], slots["invalid"]
        )
        if threw or degraded or invalid
    )


def fallback_mismatches(slots):
    """Slots whose fell-back flag disagrees with the fault schedule."""
    return [
        i
        for i, (fell, faulted) in enumerate(zip(slots["fell_back"], slots["faulted"]))
        if bool(fell) != bool(faulted)
    ]


def mean(values):
    return sum(values) / len(values) if values else 0.0


def median_or_zero(values):
    return statistics.median(values) if values else 0.0


def p50_or_zero(values):
    return percentile(values, 0.5)[0] if values else 0.0


def throughput(doc):
    """Timed slots per second of slot-loop wall time (cold slots included)."""
    slots = sum(e["slots"] for e in doc["episodes"])
    loop = sum(e["loop_s"] for e in doc["episodes"])
    return slots / loop


def per_slot_min(values, episodes):
    """Each slot's fastest sample over the episodes of a run.

    `values` holds `episodes` consecutive runs of the same slot sequence;
    the result has one value per slot position.
    """
    if episodes < 1 or len(values) % episodes:
        raise ValueError("%d samples do not split into %d episodes"
                         % (len(values), episodes))
    h = len(values) // episodes
    return [min(values[e * h + t] for e in range(episodes)) for t in range(h)]


def costs_agree(a, b, rtol):
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1.0)


def check_reference(workload, seed, cost, reference):
    """Compare total_cost with the recorded reference.

    A seed with a recorded cost must match it within the recorded rtol;
    any other seed must land inside the recorded band. Returns an error
    string, or None when the cost is accepted.
    """
    entry = reference.get(workload)
    if entry is None:
        return "no reference recorded for " + workload
    recorded = entry["seeds"].get(str(seed))
    if recorded is not None:
        if not costs_agree(cost, recorded, entry["rtol"]):
            return "total_cost %.10g differs from the reference %.10g (rtol %g)" % (
                cost, recorded, entry["rtol"])
        return None
    lo, hi = entry["band"]
    if not lo <= cost <= hi:
        return "total_cost %.10g outside the reference band [%g, %g]" % (cost, lo, hi)
    return None


def spans_by_name(trace, prefix):
    """Durations (ms) of trace events whose name starts with `prefix`, in
    recording order, grouped by name."""
    out = {}
    for ev in trace.get("traceEvents", []):
        name = ev.get("name", "")
        if name.startswith(prefix):
            out.setdefault(name, []).append(ev["dur"] / 1e3)
    return out


def end_to_end(doc):
    """The end-to-end metrics of one untraced run, plus context.

    Every episode of a run replays the same seeded slot sequence, and the
    metrics are best-of-N: each slot's latency is its fastest episode's, so
    a host slowdown has to hit every repetition of a slot to move them. The
    context carries the same figures over all episodes' samples pooled.
    """
    slots = doc["slots"]
    episodes = len(doc["episodes"])
    step = per_slot_min(slots["step_ms"], episodes)
    work = per_slot_min(slots["work_ms"], episodes)
    p50 = percentile(step, 0.5)
    p90 = percentile(step, 0.9)
    metrics = {
        "setup_s": statistics.median(doc["setup_s"]),
        "slots_per_s": 1e3 * len(work) / sum(work),
        "slot_p50_ms": p50[0],
        "slot_p90_ms": p90[0],
        "total_cost": doc["episodes"][0]["cost"],
        "peak_rss_mb": doc["peak_rss_mb"],
    }
    context = {
        name: {"n": n, "beyond": beyond, "trusted": beyond >= MIN_TAIL_SAMPLES}
        for name, (_, n, beyond) in (("slot_p50_ms", p50), ("slot_p90_ms", p90))
    }
    context.update({
        "fallback_share": mean(slots["fell_back"]),
        "episodes": episodes,
        "all_episodes": {
            "slots_per_s": throughput(doc),
            "slot_p50_ms": percentile(slots["step_ms"], 0.5)[0],
            "slot_p90_ms": percentile(slots["step_ms"], 0.9)[0],
            "beyond_p90": percentile(slots["step_ms"], 0.9)[2],
        },
        "setups": len(doc["setup_s"]),
    })
    return metrics, context


def per_layer(traced, trace, untraced, single):
    """Per-layer metrics from the traced run `traced` (with its exported
    `trace`), the untraced run at full pool size and the one at pool size 1.

    Returns (metrics, reconcile_error)."""
    slots = traced["slots"]
    reg_c = traced["registry"]["counters"]
    reg_h = traced["registry"]["histograms"]

    def counter(name):
        return reg_c.get(name, 0.0)

    def hsum(name):
        return reg_h.get(name, {}).get("sum", 0.0)

    def hcount(name):
        return reg_h.get(name, {}).get("count", 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    n = len(slots["step_ms"])
    spans = spans_by_name(trace, "bench/")
    step_spans = spans.get("bench/step", [])
    if len(step_spans) != n:
        raise ValueError("trace holds %d bench/step spans for %d slots"
                         % (len(step_spans), n))
    is_serve = traced["workload"] == "serve-k1"
    # Inner P2 solve time per slot: the workspace step inside the daemon, or
    # the step call itself.
    inner = slots["solve_ms"] if is_serve else step_spans
    other = [s - b - r for s, b, r in zip(inner, slots["build_ms"], slots["barrier_ms"])]
    episodes = len(traced["episodes"])
    loop_s = sum(e["loop_s"] for e in traced["episodes"])
    barrier_s = hsum("sora_p2_barrier_seconds")
    factor = ratio(hsum("sora_ipm_factor_seconds"), barrier_s)
    trisolve = ratio(hsum("sora_ipm_solve_seconds"), barrier_s)
    builds = counter("sora_ipm_symbolic_builds")
    reuse = counter("sora_ipm_symbolic_reuse")
    decomposed = hcount("sora_admm_iterations")
    recovery = [s for s, f in zip(step_spans, slots["faulted"]) if f]

    # Two independent timers of the same solves: the library's own
    # p2/barrier and p2/decomposed trace spans against the registry's
    # sora_p2_barrier_seconds histogram.
    lib = spans_by_name(trace, "p2/")
    timed = sum(lib.get("p2/barrier", [])) + sum(lib.get("p2/decomposed", []))
    reconcile = abs(timed - 1e3 * barrier_s) / (1e3 * barrier_s) if barrier_s else 1.0

    metrics = {
        "cloudnet.build_ms": median_or_zero(spans.get("bench/build", [])),
        "core.p2.ctor_ms": median_or_zero(spans.get("bench/ctor", [])),
        "core.p2.first_slot_ms": median_or_zero(
            [s for s, f in zip(step_spans, slots["first"]) if f]),
        "core.p2.build_ms_p50": p50_or_zero(slots["build_ms"]),
        "core.p2.barrier_ms_p50": p50_or_zero(slots["barrier_ms"]),
        "core.p2.barrier_ms_p90": percentile(slots["barrier_ms"], 0.9)[0],
        "core.p2.other_ms_p50": p50_or_zero(other),
        "core.p2.warm_share": mean(slots["warm"]),
        "core.p2.newton_steps_per_slot": mean(slots["newton"]),
        "solver.ipm.backtracks_per_step": ratio(
            hsum("sora_ipm_line_search_backtracks"), hsum("sora_ipm_newton_steps")),
        "solver.ipm.centerings_per_solve": ratio(
            hsum("sora_ipm_centering_iterations"), hcount("sora_ipm_centering_iterations")),
        "solver.ipm.factor_share": factor,
        "solver.ipm.trisolve_share": trisolve,
        "solver.ipm.unattributed_share": 1.0 - factor - trisolve,
        "solver.ipm.symbolic_builds": builds / episodes,
        "solver.ipm.symbolic_reuse_ratio": ratio(reuse, builds + reuse),
        "core.admm.rounds_per_slot": hsum("sora_admm_iterations") / n,
        "core.admm.block_solves_per_slot": counter("sora_admm_block_solves_total") / n,
        "core.admm.stall_share": ratio(counter("sora_admm_stalls_total"), decomposed),
        "linalg.batch.lockstep_share": ratio(
            counter("sora_batch_lockstep_instances_total"), counter("sora_batch_solves_total")),
        "linalg.batch.factor_fallbacks": counter("sora_batch_factor_fallbacks_total"),
        "util.pool.tasks_per_slot": counter("sora_threadpool_tasks_total") / n,
        "util.pool.busy_share": ratio(
            hsum("sora_threadpool_task_seconds"), loop_s * traced["host"]["threads"]),
        "util.pool.speedup_1t": throughput(untraced) / throughput(single),
        "core.resilience.attempts_per_slot": mean(slots["attempts"]),
        "core.resilience.fallback_share": mean(slots["fell_back"]),
        "core.resilience.recovery_ms_p50": p50_or_zero(recovery),
        "serve.tick_parse_us_p50": 1e3 * p50_or_zero(spans.get("bench/tick_parse", [])),
        "serve.daemon_other_ms_p50": p50_or_zero(
            [s - v for s, v in zip(step_spans, slots["solve_ms"])] if is_serve else []),
        "serve.snapshot_write_ms_p50": p50_or_zero(spans.get("bench/snapshot_write", [])),
        "serve.snapshot_bytes": traced["snapshot_bytes"],
        "serve.restore_ms": median_or_zero(spans.get("bench/restore", [])),
        "obs.trace_overhead": throughput(untraced) / throughput(traced) - 1.0,
        "obs.barrier_reconcile_error": reconcile,
    }
    return metrics, reconcile


def check_names(names, declared):
    """Names that break the naming rule or are not declared in
    BENCHMARK.json; empty when all are fine."""
    return sorted(n for n in names if not NAME_RE.match(n) or n not in declared)
