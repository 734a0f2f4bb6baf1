"""The one worker-pool policy of the package."""

import os
from contextlib import contextmanager

from .errors import KreinError


@contextmanager
def fork_map(fn, tasks: list):
    """Yield ``map(fn, tasks)`` computed in task order by forked workers, one
    per CPU in the affinity mask and at most one per task.  When the block
    ends, pending tasks are cancelled and the workers joined, so no worker
    outlives it; a failing task re-raises here, and a worker that dies
    raises ``KreinError``.  ``fn`` must be a module-level function; the
    workers inherit the modules and globals."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    workers = min(len(tasks), len(os.sched_getaffinity(0)))
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        yield pool.map(fn, tasks)
    except BrokenProcessPool:
        raise KreinError("a worker process died before its task finished") from None
    finally:
        pool.shutdown(cancel_futures=True)
