"""The shared fork-pool runner: ordering, retries, rebuilds, context.

Most tests patch ``runner.fork_pool`` with a fake pool so every failure
branch is exercised deterministically; one test runs a real two-worker
fork pool to pin that workers read the fork-inherited context.
"""

import multiprocessing
import os
from concurrent.futures import TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.utils import runner as runner_module
from repro.utils.runner import ForkRunner, discard_pool
from repro.utils.telemetry import Telemetry

_HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

ITEMS = [1, 2, 3, 4]
CONTEXT = {"offset": 10, "bad": ()}


def _shift(item, context):
    if item in context["bad"]:
        raise ValueError(f"bad item {item}")
    return item * item + context["offset"]


def _expected(items=ITEMS, context=CONTEXT):
    return [_shift(item, context) for item in items]


class _FakeFuture:
    def __init__(self, value=None, exc=None):
        self._value = value
        self._exc = exc
        self.cancelled = False

    def result(self, timeout=None):
        if self._exc is not None:
            raise self._exc
        return self._value

    def cancel(self):
        self.cancelled = True
        return False


class _FakePool:
    """Runs ``fn`` eagerly at submit (through the runner's fork-context
    trampoline); ``failures`` maps an item to the exception its future
    raises instead, and ``submit_error`` makes ``submit`` itself fail."""

    def __init__(self, failures=None, submit_error=None):
        self.failures = failures or {}
        self.submit_error = submit_error
        self.shut_down = False

    def submit(self, fn, item):
        if self.submit_error is not None:
            raise self.submit_error
        if item in self.failures:
            return _FakeFuture(exc=self.failures[item]())
        try:
            return _FakeFuture(value=fn(item))
        except Exception as exc:
            return _FakeFuture(exc=exc)

    def shutdown(self, wait=True, cancel_futures=False):
        self.shut_down = True


@pytest.fixture
def fake_pools(monkeypatch):
    """Install fake pools; returns ``install(**pool_kwargs) -> pools``."""
    pools = []

    def install(**kwargs):
        def fake_fork_pool(workers):
            pool = _FakePool(**kwargs)
            pools.append(pool)
            return pool

        monkeypatch.setattr(runner_module, "fork_pool", fake_fork_pool)
        return pools

    return install


def _runner(telemetry, context=CONTEXT, workers=2, **kwargs):
    return ForkRunner(_shift, context, workers, telemetry, "t", **kwargs)


class TestOrderedMap:
    def test_serial_results_in_item_order(self):
        telemetry = Telemetry()
        with _runner(telemetry, workers=1) as runner:
            assert runner.map(ITEMS) == _expected()
            assert runner.map(iter(ITEMS)) == _expected()
        assert telemetry.counters == {}

    def test_pooled_results_in_item_order(self, fake_pools):
        pools = fake_pools()
        telemetry = Telemetry()
        with _runner(telemetry) as runner:
            assert runner.map(ITEMS) == _expected()
            assert runner.map(reversed(ITEMS)) == _expected(ITEMS[::-1])
        assert len(pools) == 1 and pools[0].shut_down
        assert telemetry.counters == {}


class TestFailureBranches:
    @pytest.mark.parametrize("exc_factory, counter, rebuilds", [
        (FutureTimeout, "t_worker_timeouts", True),
        (lambda: BrokenProcessPool("worker died"), "worker_errors", True),
    ], ids=["timeout", "broken-pool"])
    def test_failed_future_retries_and_rebuilds(
        self, fake_pools, exc_factory, counter, rebuilds
    ):
        pools = fake_pools(failures={2: exc_factory})
        telemetry = Telemetry()
        with _runner(telemetry, timeout=0.5) as runner:
            assert runner.map(ITEMS) == _expected()
            counters = dict(telemetry.counters)
            assert counters == {
                counter: 1, "t_worker_retries": 1, "t_pool_rebuilds": 1,
            }
            # The suspect pool was torn down and a fresh one serves the
            # next map.
            assert len(pools) == 2
            assert pools[0].shut_down and not pools[1].shut_down
            assert runner.map([3]) == _expected([3])
        assert pools[1].shut_down

    def test_worker_exception_retries_without_rebuild(self, fake_pools):
        calls = []

        def flaky(item, context):
            calls.append(item)
            if item == 3 and calls.count(3) == 1:
                raise ValueError("first attempt fails")
            return _shift(item, context)

        pools = fake_pools()
        telemetry = Telemetry()
        with ForkRunner(flaky, CONTEXT, 2, telemetry, "t") as runner:
            assert runner.map(ITEMS) == _expected()
        assert telemetry.counters == {
            "worker_errors": 1, "t_worker_retries": 1,
        }
        assert len(pools) == 1
        assert calls.count(3) == 2

    def test_failed_submit_retries_every_item_and_rebuilds(
        self, fake_pools
    ):
        pools = fake_pools(submit_error=RuntimeError("pool is gone"))
        telemetry = Telemetry()
        with _runner(telemetry) as runner:
            assert runner.map(ITEMS) == _expected()
        assert telemetry.counters == {
            "worker_errors": 1,
            "t_worker_retries": len(ITEMS),
            "t_pool_rebuilds": 1,
        }
        assert len(pools) == 2 and pools[0].shut_down

    def test_on_failure_supplies_the_result(self, fake_pools):
        fake_pools()
        telemetry = Telemetry()
        context = {"offset": 10, "bad": (2,)}
        with _runner(
            telemetry, context=context,
            on_failure=lambda item, exc: ("failed", item, str(exc)),
        ) as runner:
            results = runner.map(ITEMS)
        assert results[1] == ("failed", 2, "bad item 2")
        assert [r for i, r in enumerate(results) if i != 1] == \
            _expected([1, 3, 4], context)
        assert telemetry.counters["t_worker_retries"] == 1

    def test_retry_exception_propagates_without_on_failure(
        self, fake_pools
    ):
        pools = fake_pools()
        context = {"offset": 10, "bad": (2,)}
        with pytest.raises(ValueError, match="bad item 2"):
            with _runner(Telemetry(), context=context) as runner:
                runner.map(ITEMS)
        assert pools[0].shut_down
        assert runner_module._CONTEXT is None

    def test_serial_path_does_not_retry(self):
        context = {"offset": 10, "bad": (2,)}
        telemetry = Telemetry()
        with pytest.raises(ValueError):
            with _runner(telemetry, context=context, workers=1,
                         on_failure=lambda item, exc: None) as runner:
                runner.map(ITEMS)
        assert telemetry.counters == {}


class TestPoolLifecycle:
    def test_fork_unavailable_falls_back_to_serial(self, monkeypatch):
        monkeypatch.setattr(
            runner_module.multiprocessing, "get_all_start_methods",
            lambda: ["spawn"],
        )
        telemetry = Telemetry()
        with _runner(telemetry) as runner:
            assert runner.map(ITEMS) == _expected()
        assert telemetry.counters == {"pool_unavailable": 1}

    def test_workers_one_never_forks(self, monkeypatch):
        def no_fork(workers):
            raise AssertionError("workers=1 must not build a pool")

        monkeypatch.setattr(runner_module, "fork_pool", no_fork)
        with _runner(Telemetry(), workers=1) as runner:
            assert runner_module._CONTEXT is None
            assert runner.map(ITEMS) == _expected()

    def test_context_cleared_when_body_raises(self, fake_pools):
        pools = fake_pools()
        with pytest.raises(RuntimeError):
            with _runner(Telemetry()):
                assert runner_module._CONTEXT == (_shift, CONTEXT)
                raise RuntimeError("body failed")
        assert runner_module._CONTEXT is None
        assert pools[0].shut_down

    def test_discard_pool_swallows_shutdown_errors(self):
        class _Stuck:
            def shutdown(self, wait=True, cancel_futures=False):
                raise OSError("already dead")

        discard_pool(_Stuck())


def _inherited(item, context):
    # ``scale`` is a lambda: it can only reach the worker by fork.
    return os.getpid(), context["scale"](item) + context["offset"]


@pytest.mark.skipif(not _HAS_FORK, reason="needs fork start method")
def test_real_pool_reads_fork_inherited_context():
    context = {"offset": 5, "scale": lambda value: value * 3}
    items = list(range(6))
    with ForkRunner(_inherited, context, 2, Telemetry(), "t") as runner:
        results = runner.map(items)
    assert [value for _, value in results] == [
        item * 3 + 5 for item in items
    ]
    assert all(pid != os.getpid() for pid, _ in results)
    assert runner_module._CONTEXT is None
