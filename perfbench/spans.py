"""Span tracer for the traced benchmark run.

The benchmark measures layers from outside the program: it opens spans
around its own calls into each layer, and :meth:`Tracer.wrap` swaps a
timing wrapper in at the names callers look up (a module global such as
``repro.scheduler.objective.compute_timing`` or a class attribute such
as ``SpatialScheduler.schedule``). :meth:`Tracer.restore` puts every
original back. Spans stay in memory; :meth:`Tracer.dump` writes them
once, when the run ends. The untraced run uses :class:`NullTracer`,
which installs nothing.
"""

import contextlib
import functools
import json
import time


class NullTracer:
    """The untraced run's stand-in: no spans, no telemetry, no wrappers."""

    telemetry = None

    def start(self):
        pass

    def begin_pass(self, index):
        pass

    def span(self, name):
        return contextlib.nullcontext()

    def restore(self):
        pass


class Tracer:
    """In-memory span recorder plus the wrappers it installed.

    Each pass gets a fresh :class:`repro.utils.telemetry.Telemetry`
    (``self.telemetry``) that the workloads thread through the program's
    public ``telemetry=`` arguments; ``self.telemetries`` keeps one per
    pass.
    """

    def __init__(self):
        self.spans = []        # [id, parent, name, start, end, pass]
        self._stack = []
        self._patches = []     # (owner, attribute, original)
        self.pass_index = 0
        self.telemetries = []
        self.telemetry = None

    def start(self):
        """Install the wrappers; called once set-up is done, so only the
        timed phase is traced."""
        install(self)

    def begin_pass(self, index):
        from repro.utils.telemetry import Telemetry

        self.pass_index = index
        self.telemetry = Telemetry()
        self.telemetries.append(self.telemetry)

    def open(self, name):
        span = [len(self.spans), self._stack[-1] if self._stack else None,
                name, time.perf_counter(), None, self.pass_index]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def close(self, span):
        span[4] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        """Record the ``with`` block as one span called ``name``."""
        span = self.open(name)
        try:
            yield
        finally:
            self.close(span)

    def wrap(self, owner, attribute, name, classify=None):
        """Replace ``owner.attribute`` by a wrapper recording a span.

        ``classify(args, kwargs)``, when given, picks the span name per
        call (for example pre- vs post-schedule estimates).
        """
        original = getattr(owner, attribute)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = tracer.open(classify(args, kwargs) if classify else name)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.close(span)

        setattr(owner, attribute, traced)
        self._patches.append((owner, attribute, original))

    def restore(self):
        """Undo every :meth:`wrap`, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- aggregation ---------------------------------------------------
    def seconds_per_pass(self):
        """``{name: seconds}`` per pass, averaged over passes."""
        passes = self.pass_index + 1
        sums = {}
        for _, _, name, start, end, _ in self.spans:
            sums[name] = sums.get(name, 0.0) + end - start
        return {name: seconds / passes for name, seconds in sums.items()}

    def covered_seconds(self, containers):
        """Seconds covered by the outermost spans that are not one of the
        ``containers`` (benchmark-level spans that only group layers)."""
        by_id = {span[0]: span for span in self.spans}
        total = 0.0
        for _, parent, name, start, end, _ in self.spans:
            if name in containers:
                continue
            while parent is not None and by_id[parent][2] in containers:
                parent = by_id[parent][1]
            if parent is None:
                total += end - start
        return total

    def dump(self, path):
        with open(path, "w") as handle:
            for span_id, parent, name, start, end, index in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name,
                    "start": start, "end": end, "pass": index,
                }) + "\n")


def install(tracer):
    """Wrap the public layer entry points at their lookup sites."""
    import importlib

    from repro.adg.graph import Adg
    from repro.estimation.perf_model import PerformanceModel
    from repro.scheduler.stochastic import SpatialScheduler

    pipeline = importlib.import_module("repro.compiler.pipeline")
    objective = importlib.import_module("repro.scheduler.objective")
    stochastic = importlib.import_module("repro.scheduler.stochastic")
    machine = importlib.import_module("repro.sim.machine")
    # ``repro.faults.degrade`` as an attribute is the re-exported
    # function, not the module.
    degrade = importlib.import_module("repro.faults.degrade")

    tracer.wrap(SpatialScheduler, "schedule", "scheduler.schedule")
    tracer.wrap(objective, "compute_timing", "scheduler.compute_timing")
    tracer.wrap(pipeline, "compute_timing", "scheduler.compute_timing")
    tracer.wrap(stochastic, "evaluate_schedule", "scheduler.evaluate")
    tracer.wrap(
        PerformanceModel, "estimate", None,
        classify=lambda args, kwargs: (
            "compiler.post_estimate"
            if len(args) > 2 or kwargs.get("schedule") is not None
            else "compiler.pre_estimate"
        ),
    )
    tracer.wrap(pipeline, "generate_control_program", "compiler.codegen")
    tracer.wrap(machine, "execute_scope", "ir.functional")
    tracer.wrap(degrade, "repair_schedule", "scheduler.repair")
    tracer.wrap(degrade, "lint_schedule", "verify.lint")
    tracer.wrap(degrade, "compile_kernel", "compiler.compile")
    tracer.wrap(degrade, "generate_control_program", "compiler.codegen")
    tracer.wrap(degrade, "simulate", "sim.simulate")
    tracer.wrap(Adg, "clone", "adg.clone")
