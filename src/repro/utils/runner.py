"""One resilient fork-pool map for the DSE, composition and fault loops.

:class:`ForkRunner` evaluates a pure ``fn(item, context)`` over a list
of items and returns the results in item order, in process when
``workers`` is 1 and across a ``fork``-context
``ProcessPoolExecutor`` otherwise. ``fn`` and ``context`` are never
pickled: they are stored in the module's ``_CONTEXT`` before the pool
forks, so workers inherit kernel closures and baselines from the
parent, and only items and results cross the process boundary.

Pool failures degrade per item instead of aborting the map:

* a result that misses ``timeout`` seconds, or a pool that breaks
  (``BrokenProcessPool``), gets one in-process retry and the pool is
  rebuilt once the map ends (abandoned workers may still be grinding on
  the stuck item);
* a worker exception (or an unpicklable result) gets the same retry
  but no rebuild: the pool itself is fine;
* a failed ``submit`` means the pool is already broken: it is rebuilt
  and every item is retried in process.

When a retry raises too, ``on_failure(item, exc)`` supplies the result;
without ``on_failure`` the exception propagates. Counters:
``{prefix}_worker_timeouts``, ``{prefix}_worker_retries``,
``{prefix}_pool_rebuilds``, ``worker_errors`` and ``pool_unavailable``
(fork missing, or the pool could not start).
"""

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FutureTimeout
from concurrent.futures.process import BrokenProcessPool

__all__ = ["ForkRunner", "discard_pool", "fork_pool"]

#: ``(fn, context)`` of the pooled runner, read by forked workers; set
#: before the pool forks and cleared when the runner exits.
_CONTEXT = None


def fork_pool(workers):
    """A fork-context pool of ``workers`` processes, or None when
    ``fork`` is unavailable or the pool cannot start."""
    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    try:
        return ProcessPoolExecutor(
            max_workers=workers,
            mp_context=multiprocessing.get_context("fork"),
        )
    except OSError:
        return None


def discard_pool(pool):
    """Tear down a suspect pool without waiting for its workers."""
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:
        pass


def _invoke(item):
    fn, context = _CONTEXT
    return fn(item, context)


class ForkRunner:
    """Context manager mapping ``fn(item, context)`` over items."""

    def __init__(self, fn, context, workers, telemetry, prefix,
                 timeout=None, on_failure=None):
        self.fn = fn
        self.context = context
        self.workers = max(1, int(workers))
        self.telemetry = telemetry
        self.prefix = prefix
        self.timeout = timeout
        self.on_failure = on_failure
        self._pool = None

    def __enter__(self):
        global _CONTEXT
        if self.workers > 1:
            _CONTEXT = (self.fn, self.context)
            self._pool = self._new_pool()
        return self

    def __exit__(self, *exc_info):
        global _CONTEXT
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        _CONTEXT = None
        return False

    def _new_pool(self):
        pool = fork_pool(self.workers)
        if pool is None:
            self.telemetry.incr("pool_unavailable")
        return pool

    def _rebuild(self):
        if self._pool is not None:
            discard_pool(self._pool)
            self.telemetry.incr(f"{self.prefix}_pool_rebuilds")
        self._pool = self._new_pool()

    def _retry(self, item):
        self.telemetry.incr(f"{self.prefix}_worker_retries")
        try:
            return self.fn(item, self.context)
        except Exception as exc:
            if self.on_failure is None:
                raise
            return self.on_failure(item, exc)

    def map(self, items):
        """``[fn(item, context) for item in items]``, in item order."""
        items = list(items)
        if self._pool is None:
            return [self.fn(item, self.context) for item in items]
        try:
            futures = [self._pool.submit(_invoke, item) for item in items]
        except Exception:
            self.telemetry.incr("worker_errors")
            self._rebuild()
            return [self._retry(item) for item in items]
        results = []
        rebuild = False
        for item, future in zip(items, futures):
            try:
                results.append(future.result(timeout=self.timeout))
                continue
            except _FutureTimeout:
                self.telemetry.incr(f"{self.prefix}_worker_timeouts")
                future.cancel()
                rebuild = True
            except BrokenProcessPool:
                self.telemetry.incr("worker_errors")
                rebuild = True
            except Exception:
                self.telemetry.incr("worker_errors")
            results.append(self._retry(item))
        if rebuild:
            self._rebuild()
        return results
