"""Process-parallel execution of independent simulation work.

Two shard axes (DESIGN.md §12):

* **Group sharding** — :func:`run_sharded_collective` partitions a
  plan's independent aggregation groups across worker processes and
  merges stats/traces deterministically.
* **Cell sharding** — :class:`ParallelRunner` fans independent sweep
  cells (experiment grid points) out across workers; :func:`cell_seed`
  keeps per-cell RNG seeds a function of the cell, not the worker.
"""

from repro.parallel.groups import run_sharded_collective
from repro.parallel.pool import ParallelRunner, cell_seed, resolve_jobs

__all__ = [
    "ParallelRunner",
    "cell_seed",
    "resolve_jobs",
    "run_sharded_collective",
]
