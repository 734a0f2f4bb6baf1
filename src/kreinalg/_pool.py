"""The one worker-pool policy of the package."""

import os
from contextlib import contextmanager


@contextmanager
def fork_map(fn, tasks: list):
    """Yield ``map(fn, tasks)`` computed in task order by forked workers, one
    per CPU in the affinity mask and at most one per task.  The pool is
    joined when the block ends and terminated if it raises, so no worker
    outlives it; a failing task re-raises here.  ``fn`` must be a
    module-level function; the workers inherit the modules and globals."""
    import multiprocessing
    workers = min(len(tasks), len(os.sched_getaffinity(0)))
    with multiprocessing.get_context("fork").Pool(workers) as pool:
        yield pool.imap(fn, tasks, chunksize=1)
        pool.close()
        pool.join()
