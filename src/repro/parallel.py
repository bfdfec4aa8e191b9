"""A small parallel-map fabric for embarrassingly parallel training work.

The expensive loops in this reproduction -- the 52 one-vs-rest disposition
models plus 4 location models of the trouble locator, the per-fold
calibration refits, and the per-column parts of the feature-selection
sweep -- are all *independent* tasks over shared read-only numpy arrays.
This module gives them one deterministic primitive:

* :func:`parallel_map` -- ``map`` that preserves input order, running
  serially at ``workers=1`` (the default) and on a thread pool above it.

Threads, not processes: every task body is dominated by numpy kernels
(argsort, cumsum, gathers), which release the GIL, so threads deliver real
parallelism without pickling closures or duplicating the feature matrices
in child processes.  Because tasks are independent and results are
collected in submission order, the output is identical for every worker
count -- ``REPRO_WORKERS=8`` must (and does, see
``tests/test_parallel_fabric.py``) reproduce the serial result bit for
bit.

The worker count comes from the ``REPRO_WORKERS`` environment variable
(default 1) unless the caller passes one explicitly.

Observability: every task reports into the :mod:`repro.obs` registry --
``repro_parallel_queue_depth`` (gauge of submitted-but-unfinished
tasks), ``repro_parallel_task_seconds`` (histogram, labelled by the
caller's ``task_label``; its ``_count`` is the completed-task count),
``repro_parallel_task_errors_total`` (tasks that raised), and
``repro_parallel_worker_busy_seconds_total``
(per-worker counter; pool threads carry a stable ``repro-worker_N``
name, so utilization is busy-seconds per worker over wall time).  Each
fan-out as a whole runs under one ``stage("fabric.<task_label>")``.
When ``REPRO_TRACE`` is on, the span context is captured *inside* that
stage and every task runs under an adopted child span, so at every
worker count the task spans nest under the ``fabric.<task_label>``
span even though worker threads have their own stacks.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter
from typing import Callable, Iterable, Sequence, TypeVar

from repro.obs.metrics import get_registry
from repro.obs.profile import stage
from repro.obs.tracing import get_tracer, tracing_enabled

__all__ = ["WORKERS_ENV_VAR", "worker_count", "parallel_map", "split_shards"]

WORKERS_ENV_VAR = "REPRO_WORKERS"

_T = TypeVar("_T")
_R = TypeVar("_R")

#: Task-duration buckets: selection chunks run sub-millisecond at test
#: scale, locator fits run seconds at benchmark scale.
_TASK_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0,
)


def worker_count(workers: int | str | None = None) -> int:
    """Resolve the effective worker count.

    Args:
        workers: explicit override; ``None`` reads ``REPRO_WORKERS`` from
            the environment, defaulting to 1 (serial) when unset or empty.
            The literal string ``"auto"`` (either as the argument or as
            the environment value) resolves to ``os.cpu_count()``, so a
            deployment can saturate whatever box it lands on without
            hard-coding a width.

    Returns:
        A positive integer worker count.

    Raises:
        ValueError: on a non-integer or non-positive setting, so that a
            typo in the environment fails loudly instead of silently
            running serial.
    """
    if workers is None:
        raw = os.environ.get(WORKERS_ENV_VAR, "").strip()
        if not raw:
            return 1
        workers = raw
    if isinstance(workers, str):
        raw = workers.strip()
        if raw.lower() == "auto":
            return os.cpu_count() or 1
        try:
            workers = int(raw)
        except ValueError:
            raise ValueError(
                f"{WORKERS_ENV_VAR} must be a positive integer or 'auto', "
                f"got {raw!r}"
            ) from None
    if workers < 1:
        raise ValueError(f"worker count must be >= 1, got {workers}")
    return workers


def parallel_map(
    fn: Callable[[_T], _R],
    items: Iterable[_T],
    workers: int | None = None,
    task_label: str = "parallel.task",
) -> list[_R]:
    """Apply ``fn`` to every item, preserving input order.

    Serial (a plain loop) when the resolved worker count is 1 or there is
    at most one item; otherwise a thread pool.  Exceptions from any task
    propagate to the caller either way.  Instrumentation (metrics, and
    spans when tracing is on) never changes results: tasks run the same
    bodies in the same submission order.

    Args:
        fn: task body; must not mutate shared state (tasks may run
            concurrently).
        items: the work list; consumed eagerly.
        workers: explicit worker count, else ``REPRO_WORKERS`` (default 1).
        task_label: the ``task`` label on fabric metrics and the span name
            of each task (e.g. ``"select.chunk"``, ``"serve.shard"``).

    Returns:
        ``[fn(item) for item in items]`` -- same values, same order,
        regardless of the worker count.
    """
    work: Sequence[_T] = list(items)
    if not work:
        return []
    n_workers = worker_count(workers)

    registry = get_registry()
    queue_depth = registry.gauge(
        "repro_parallel_queue_depth",
        "Tasks submitted to the parallel fabric but not yet finished",
    )
    task_errors = registry.counter(
        "repro_parallel_task_errors_total", "Tasks that raised"
    )
    task_seconds = registry.histogram(
        "repro_parallel_task_seconds",
        "Wall time per fabric task",
        buckets=_TASK_BUCKETS,
    )
    worker_busy = registry.counter(
        "repro_parallel_worker_busy_seconds_total",
        "Busy wall time per fabric worker thread",
    )

    tracer = get_tracer() if tracing_enabled() else None
    context = None  # captured inside the fan-out's stage, below

    finished: list[None] = []  # list.append is atomic under the GIL

    def run(indexed: tuple[int, _T]) -> _R:
        index, item = indexed
        start = perf_counter()
        try:
            if tracer is not None:
                with tracer.adopt(context):
                    with tracer.span(task_label, index=index):
                        result = fn(item)
            else:
                result = fn(item)
        except BaseException:
            task_errors.inc(task=task_label)
            raise
        finally:
            queue_depth.dec()
            finished.append(None)
        elapsed = perf_counter() - start
        task_seconds.observe(elapsed, task=task_label)
        worker_busy.inc(elapsed, worker=threading.current_thread().name)
        return result

    queue_depth.inc(len(work))
    try:
        # One stage per *fan-out* (not per task): the resource ledger
        # answers "what did this whole sweep cost"; per-task wall time
        # feeds repro_parallel_task_seconds and the per-thread busy
        # counters, which a process-wide getrusage cannot split.
        with stage(f"fabric.{task_label}"):
            if tracer is not None:
                context = tracer.current_context()
            if n_workers == 1 or len(work) <= 1:
                return [run(indexed) for indexed in enumerate(work)]
            with ThreadPoolExecutor(
                max_workers=min(n_workers, len(work)),
                thread_name_prefix="repro-worker",
            ) as pool:
                return list(pool.map(run, enumerate(work)))
    except BaseException:
        # Tasks cancelled before starting never ran their dec; rebalance
        # so an aborted fan-out cannot leave queue depth pinned above
        # zero.  (The executor joins running tasks before propagating.)
        queue_depth.dec(len(work) - len(finished))
        raise


def split_shards(n_items: int, shard_size: int) -> list[slice]:
    """Contiguous slices covering ``range(n_items)`` in order.

    The scoring service fans these across :func:`parallel_map`; because
    the slices are contiguous, in order, and results are concatenated in
    submission order, sharded outputs are identical for every
    (shard_size, worker count) combination.

    Args:
        n_items: total number of items to cover (0 gives no shards).
        shard_size: maximum items per shard.

    Returns:
        Slices whose concatenated ranges are exactly ``0..n_items``.
    """
    if shard_size < 1:
        raise ValueError(f"shard_size must be >= 1, got {shard_size}")
    if n_items < 0:
        raise ValueError(f"n_items must be >= 0, got {n_items}")
    return [
        slice(start, min(start + shard_size, n_items))
        for start in range(0, n_items, shard_size)
    ]
