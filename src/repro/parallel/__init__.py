"""The EMS training process pool.

PFDRL's residences train independently between the β/γ broadcast
barriers, so :class:`~repro.core.pfdrl.PFDRLTrainer` can split its
residences over forked worker processes when
``PFDRLConfig.ems_workers > 1``.  That is the one process pool in the
package, kept because it is measured to pay: on 2 CPUs it trains
about 1.3× faster than the in-process engine at 64 residences
(``benchmarks/bench_hotpath.py``), and about 1.0× at the CLI's 4
residences.  Results are
bit-identical to the in-process engine.

- :class:`repro.parallel.persistent.WorkerPool` — persistent *routed*
  forked workers that own long-lived state (the training shards),
  addressed by index over private pipes.
- :class:`repro.parallel.shm.SharedArena` — anonymous shared-memory
  allocator; arrays carved before the fork are physically shared with
  every worker (the ``StackedQNet`` weight arenas live here).
- :func:`repro.parallel.partition.partition_chunks` — contiguous
  residence shards.
"""

from repro.parallel.partition import partition_chunks
from repro.parallel.persistent import WorkerError, WorkerPool, fork_available
from repro.parallel.shm import SharedArena

__all__ = [
    "SharedArena",
    "WorkerError",
    "WorkerPool",
    "fork_available",
    "partition_chunks",
]
