"""Repository benchmark: one workload per run, end-to-end or traced.

Usage (from the repository root)::

    python3 perfbench/run.py --workload compile_table1 --seed 1 \\
        --seconds 24 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing installed;
``--trace 1`` runs the same workload with span wrappers and the
program's ``telemetry=`` counters and reports the per-layer metrics.
Each run prints a ``pass_s`` line with every pass's timed seconds, one
line per metric, a ``deterministic`` line with the
exact outputs two runs at one seed must agree on, and, last, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``. Workloads,
metric definitions and the layer predictions are in ``NOTES.md``.
"""

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Where traced runs write their span logs.
WORK_DIR = os.path.join(ROOT, ".perfbench")
#: Environment knobs that would change the measured program.
PINNED_ENV = ("REPRO_SIM_ENGINE", "REPRO_DSE_FIDELITY", "REPRO_STORE")
HASH_SEED = "0"


def metric_units(section):
    """``{name: unit}`` of one metric list of ``BENCHMARK.json``, the
    single table the runs must report exactly."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {item["name"]: item["unit"] for item in
                json.load(handle)[section]}


def checked(values, units):
    """Pair every value with its unit; the names must match the table."""
    if set(values) != set(units):
        raise AssertionError(
            f"metric table mismatch: missing "
            f"{sorted(set(units) - set(values))}, "
            f"extra {sorted(set(values) - set(units))}")
    return {name: (values[name], units[name]) for name in units}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, seed, seconds, tracer):
    """Set up ``workload.setup_repeats`` times (keeping the last state),
    then run as many whole passes as fill ``seconds`` at the workload's
    nominal pass time. The pass count depends on ``seconds`` alone, so
    every run at one setting does the same work, however fast the
    machine is."""
    setup_times = []
    for _ in range(workload.setup_repeats):
        start = time.perf_counter()
        state = workload.setup(seed)
        setup_times.append(time.perf_counter() - start)
    tracer.start()
    passes = []
    for index in range(max(1, math.ceil(seconds / workload.pass_seconds))):
        tracer.begin_pass(index)
        passes.append(workload.run_pass(state, index, tracer))
    return statistics.median(setup_times), passes


def pass_seconds(passes):
    """Timed seconds of each pass, in run order."""
    return [sum(op["seconds"] for op in result["ops"]) for result in passes]


def end_to_end(setup_s, passes):
    return checked({
        "setup_s": setup_s,
        # The mean, not the median: the host's speed switches between a
        # fast and a slow state (see NOTES.md), and a median of passes
        # jumps to whichever state held most of the run.
        "wall_s": statistics.fmean(pass_seconds(passes)),
        "sim_cycles": passes[0]["sim_cycles"],
        "peak_rss_mb": peak_rss_mb(),
    }, metric_units("end_to_end"))


def _timer_total(telemetries, suffix):
    return sum(slot["seconds"] for telemetry in telemetries
               for name, slot in telemetry.timings.items()
               if name == suffix or name.endswith("/" + suffix))


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def _geomean(values):
    values = [value for value in values if value > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(value) for value in values) / len(values))


def per_layer(passes, tracer, wall_s):
    """The traced run's per-layer metrics (see ``NOTES.md``). Times are
    per pass, averaged over the passes run; counts cover the first pass,
    which is the same seed-determined work on every machine."""
    from workloads import TABLE1_KERNELS

    count = len(passes)
    spans = tracer.seconds_per_pass()
    first = tracer.telemetries[0].counters
    counters_all = {}
    for telemetry in tracer.telemetries:
        for name, amount in telemetry.counters.items():
            counters_all[name] = counters_all.get(name, 0) + amount
    counts = passes[0]["counts"]

    def span_s(name):
        return spans.get(name, 0.0)

    values = {
        "scheduler.schedule_s": span_s("scheduler.schedule"),
        "scheduler.greedy_place_s": _timer_total(
            tracer.telemetries, "sched/greedy_place") / count,
        "scheduler.route_all_s": _timer_total(
            tracer.telemetries, "sched/route_all") / count,
        "scheduler.search_s": _timer_total(
            tracer.telemetries, "sched/search") / count,
        "scheduler.compute_timing_s": span_s("scheduler.compute_timing"),
        "scheduler.compute_timing_calls": sum(
            1 for span in tracer.spans
            if span[2] == "scheduler.compute_timing" and span[5] == 0),
        "scheduler.evaluate_s": span_s("scheduler.evaluate"),
        "scheduler.evaluations": first.get("sched_evaluations", 0),
        "scheduler.iterations": first.get("sched_iterations", 0),
        "scheduler.timing_recomputes": first.get(
            "timing_region_recomputes", 0),
        "scheduler.timing_cache_hits": first.get(
            "timing_region_cache_hits", 0),
        "scheduler.timing_hit_ratio": _ratio(
            first.get("timing_region_cache_hits", 0),
            first.get("timing_region_cache_hits", 0)
            + first.get("timing_region_recomputes", 0)),
        "scheduler.repair_s": span_s("scheduler.repair"),
        "scheduler.repair_iterations": first.get(
            "fault_repair_iterations", 0),
        "compiler.compile_s": span_s("compiler.compile"),
        "compiler.pre_estimate_s": span_s("compiler.pre_estimate"),
        "compiler.post_estimate_s": span_s("compiler.post_estimate"),
        "compiler.codegen_s": span_s("compiler.codegen"),
        "compiler.variants_rejected": counts.get("variants_rejected", 0),
        "hwgen.bitstream_s": span_s("hwgen.bitstream"),
        "hwgen.config_paths_s": span_s("hwgen.config_paths"),
        "hwgen.bitstream_bits": counts.get("bitstream_bits", 0),
        "ir.functional_s": span_s("ir.functional"),
        "sim.simulate_s": span_s("sim.simulate"),
        "sim.cycles_per_s": _ratio(
            counters_all.get("sim_cycles_modeled", 0),
            span_s("sim.simulate") * count),
        "sim.build_s": _timer_total(tracer.telemetries, "sim/build")
        / count,
        "sim.replay_s": _timer_total(tracer.telemetries, "sim/replay")
        / count,
        "sim.steps_executed": first.get("sim_steps_executed", 0),
        "sim.skip_ratio": _ratio(first.get("sim_cycles_skipped", 0),
                                 first.get("sim_cycles_modeled", 0)),
        "verify.lint_s": span_s("verify.lint"),
        "faults.case_s": span_s("faults.case"),
        "faults.generate_s": span_s("faults.generate"),
        "adg.clone_s": span_s("adg.clone"),
    }
    for status in ("recovered", "degraded", "unmappable", "miscompiled"):
        values[f"faults.{status}"] = counts.get(status, 0)

    ops = [op for result in passes for op in result["ops"]]
    for part in ("compile", "simulate"):
        per_kernel = {}
        for op in ops:
            if part in op["parts"]:
                per_kernel.setdefault(op["kernel"], []).append(
                    op["parts"][part])
        means = {kernel: sum(times) / len(times)
                 for kernel, times in per_kernel.items()}
        for kernel in TABLE1_KERNELS:
            values[f"{part}.{kernel}_s"] = means.get(kernel, 0.0)
        values[f"{part}.geomean_s"] = _geomean(means.values())

    values["bench.wall_s"] = wall_s
    values["bench.attributed_frac"] = _ratio(
        tracer.covered_seconds({"faults.case"}),
        sum(op["seconds"] for op in ops))
    return checked(values, metric_units("per_layer"))


def deterministic_outputs(passes, engine, tracer):
    """Exact values two runs at one seed must agree on."""
    first = passes[0]
    exact = {"engine": engine, "sim_cycles": first["sim_cycles"],
             "outputs": first["deterministic"], "counts": first["counts"]}
    if tracer.telemetry is not None:
        exact["counters"] = dict(sorted(
            tracer.telemetries[0].counters.items()))
    text = json.dumps(exact, sort_keys=True, default=str)
    exact["fingerprint"] = hashlib.sha256(text.encode()).hexdigest()[:16]
    return exact


def repeat_mismatches(workload, passes):
    """Workloads whose passes repeat identical work must repeat their
    exact outputs too."""
    if not workload.identical_passes:
        return 0
    return sum(1 for result in passes[1:]
               if result["deterministic"] != passes[0]["deterministic"])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: no src/repro next to perfbench/; run from a "
              "full checkout", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Some compile results depend on string hashing (see NOTES.md):
        # restart with it fixed, so that one seed gives one output.
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable] + sys.argv)
    for name in PINNED_ENV:
        os.environ.pop(name, None)
    sys.path.insert(0, os.path.join(ROOT, "src"))

    import spans
    from repro.sim.machine import default_engine

    engine = default_engine()
    workload = WORKLOADS[args.workload]()
    tracer = spans.Tracer() if args.trace else spans.NullTracer()
    try:
        setup_s, passes = measure(workload, args.seed, args.seconds, tracer)
    finally:
        tracer.restore()

    ops = [op for result in passes for op in result["ops"]]
    failed = sum(1 for op in ops if not op["ok"])
    failed += repeat_mismatches(workload, passes)
    metrics = end_to_end(setup_s, passes)
    if args.trace:
        metrics = per_layer(passes, tracer, metrics["wall_s"][0])
        os.makedirs(WORK_DIR, exist_ok=True)
        tracer.dump(os.path.join(
            WORK_DIR, f"spans-{args.workload}-{args.seed}.jsonl"))
    exact = deterministic_outputs(passes, engine, tracer)

    print(f"workload {args.workload} seed {args.seed} engine {engine} "
          f"passes {len(passes)} ops {len(ops)} failed {failed} "
          f"failed_frac {failed / len(ops):.4f}")
    print("pass_s " + " ".join(f"{s:.4f}" for s in pass_seconds(passes)))
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    print("deterministic " + json.dumps(exact, sort_keys=True, default=str))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
