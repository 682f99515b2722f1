"""The package's two workers: the calling thread and at most one helper thread.

The lateral factor runs its two arms through ``run``, and the verifier the
two halves of its corpus.  Each task writes only into memory of its own, so
the bits of a result depend neither on ``count`` nor on which thread ran it.
``concurrent.futures`` is imported only when a helper starts, so a run that
never starts one does not pay for the import.
"""

from __future__ import annotations

import os

__all__ = ["count", "run"]


def count() -> int:
    """Threads to run tasks on: one per CPU this process may run on, at most two.

    Where the OS has no CPU affinity (macOS, Windows), every CPU counts.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(2, cpus or 1)


def run(tasks: list, serial: bool = False) -> list:
    """Call each of one or two tasks and return their results in order.

    With two tasks and two workers, and ``serial`` false, a helper thread runs
    the second while the caller runs the first.  The helper is joined before
    this returns or raises, and either task's exception propagates.
    """
    if len(tasks) == 1 or serial or count() == 1:
        return [task() for task in tasks]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=1) as helper:
        second = helper.submit(tasks[1])
        return [tasks[0](), second.result()]
