"""The benchmark's two workloads.

Each workload has ``setup(seed)`` (repeated to time set-up) and
``run_pass(state, index, tracer)``. A pass is a
fixed, seed-determined unit of work; ``pass_seconds`` is its nominal
duration on the reference machine (see ``NOTES.md``), from which the
runner derives how many passes fill ``--seconds``, and
``identical_passes`` marks workloads whose passes repeat the same work,
so their exact outputs must repeat too. ``setup_repeats`` is how many
times set-up runs for the ``setup_s`` median: three, or fifty for a
set-up of about a millisecond.
``run_pass`` returns::

    {"ops": [{"seconds", "ok", "kernel", "parts"}, ...],
     "sim_cycles": int, "deterministic": {...}, "counts": {...}}

``seconds`` covers only the program's work: output checks (reference
runs, digests, comparisons) happen outside the timed spans. The seed
reaches the program only through generated inputs: scheduler RNG keys
and fault-case draws.
See ``NOTES.md`` for why each workload exists.
"""

import copy
import math
import time

PRESET = "softbrain"
TABLE1_KERNELS = ("mm", "md", "qr", "conv", "pb_2mm", "crs", "histogram",
                  "fft")
FAULT_KERNELS = ("mm", "histogram", "crs")
CASES_PER_PASS = 15
#: Fault baselines are fixed so set-up does the same work at every
#: seed; the seed drives the fault cases measured after set-up.
BASELINE_SEED = 0


def outputs_match(memory, reference):
    """Every array equal at rel/abs tolerance 1e-9."""
    if set(memory) != set(reference):
        return False
    return all(
        len(memory[name]) == len(reference[name]) and all(
            math.isclose(float(a), float(b), rel_tol=1e-9, abs_tol=1e-9)
            for a, b in zip(memory[name], reference[name])
        )
        for name in memory
    )


def _op(seconds, ok, kernel, parts=None):
    return {"seconds": seconds, "ok": bool(ok), "kernel": kernel,
            "parts": parts or {}}


class CompileTable1:
    """From-scratch compile of eight Table I kernels, then hwgen and
    simulation of each mapping."""

    name = "compile_table1"
    setup_repeats = 50
    identical_passes = True
    pass_seconds = 22.0
    scale = 0.1
    max_iters = 120

    def setup(self, seed):
        from repro.adg import topologies
        from repro.workloads import kernel as make_kernel

        return {
            "seed": seed,
            "adg": topologies.PRESETS[PRESET](),
            "kernels": {name: make_kernel(name, self.scale)
                        for name in TABLE1_KERNELS},
        }

    def run_pass(self, state, index, tracer):
        from repro.compiler import compile_kernel
        from repro.hwgen import encode_bitstream, generate_config_paths
        from repro.hwgen.config_path import longest_path_length
        from repro.server.jobs import artifact_digest
        from repro.sim import simulate
        from repro.utils.rng import DeterministicRng

        adg, seed = state["adg"], state["seed"]
        ops, deterministic = [], {}
        counts = {"variants_rejected": 0, "bitstream_bits": 0}
        cycles = 0
        for name, kernel in state["kernels"].items():
            memory = kernel.make_memory()
            start = time.perf_counter()
            with tracer.span("compiler.compile"):
                compiled = compile_kernel(
                    kernel, adg, rng=DeterministicRng((seed, name)),
                    max_iters=self.max_iters, telemetry=tracer.telemetry,
                )
            compile_s = time.perf_counter() - start
            counts["variants_rejected"] += len(compiled.rejected)
            if not compiled.ok:
                ops.append(_op(compile_s, False, name))
                continue
            with tracer.span("hwgen.bitstream"):
                bits = encode_bitstream(adg, compiled.schedule)
            with tracer.span("hwgen.config_paths"):
                paths = generate_config_paths(adg, 3)
            compiled.scope.bind_constants(memory)
            hwgen_end = time.perf_counter()
            reference = copy.deepcopy(memory)
            sim_start = time.perf_counter()
            with tracer.span("sim.simulate"):
                sim = simulate(
                    adg, compiled, memory,
                    config_cycles=longest_path_length(paths),
                    telemetry=tracer.telemetry,
                )
            simulate_s = time.perf_counter() - sim_start
            kernel.reference(reference)
            ops.append(_op(
                hwgen_end - start + simulate_s,
                outputs_match(memory, reference), name,
                {"compile": compile_s, "simulate": simulate_s},
            ))
            cycles += sim.cycles
            counts["bitstream_bits"] += bits.total_bits()
            deterministic[name] = {
                "cycles": sim.cycles, "bits": bits.total_bits(),
                "digest": artifact_digest(compiled),
            }
        return {"ops": ops, "sim_cycles": cycles,
                "deterministic": deterministic, "counts": counts}


class FaultRepair:
    """Serial fault-injection cases repaired against healthy baselines."""

    name = "fault_repair"
    setup_repeats = 3
    identical_passes = False
    pass_seconds = 2.0
    scale = 0.05
    sched_iters = 120

    def setup(self, seed):
        from repro.faults import prepare_baseline

        baselines = {
            name: prepare_baseline(
                name, preset=PRESET, scale=self.scale,
                sched_iters=self.sched_iters, seed=BASELINE_SEED,
            )
            for name in FAULT_KERNELS
        }
        return {"seed": seed, "baselines": baselines}

    def run_pass(self, state, index, tracer):
        from repro.faults import STATUSES, generate_case, run_case

        seed, baselines = state["seed"], state["baselines"]
        ops, outcomes, cycles = [], [], 0
        counts = {status: 0 for status in STATUSES}
        counts["repair_iterations"] = 0
        first = index * CASES_PER_PASS
        for case_index in range(first, first + CASES_PER_PASS):
            # Round-robin over the workloads keeps every pass's mix fixed;
            # the fault draws vary with the seed and the case index.
            name = FAULT_KERNELS[case_index % len(FAULT_KERNELS)]
            baseline = baselines[name]
            start = time.perf_counter()
            with tracer.span("faults.case"):
                with tracer.span("faults.generate"):
                    case = generate_case(
                        seed, case_index, workloads=(name,), preset=PRESET,
                        scale=self.scale, adg=baseline.adg,
                    )
                outcome = run_case(
                    case, baseline=baseline, sched_iters=self.sched_iters,
                    telemetry=tracer.telemetry,
                )
            seconds = time.perf_counter() - start
            ops.append(_op(seconds, outcome.status != "miscompiled", name))
            counts[outcome.status] += 1
            counts["repair_iterations"] += outcome.repair_iterations
            cycles += outcome.cycles
            outcomes.append([case_index, outcome.status, outcome.cycles])
        return {"ops": ops, "sim_cycles": cycles,
                "deterministic": {"outcomes": outcomes}, "counts": counts}


WORKLOADS = {cls.name: cls for cls in (CompileTable1, FaultRepair)}
