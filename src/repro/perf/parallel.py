"""Worker-count resolution and the process-pool fan-out plan.

The experiment grids (scheduler × day × seed × config) and fleet
shards are embarrassingly parallel; the one pooled executor,
:func:`repro.reliability.supervisor.supervised_map`, fans them out.
This module decides *how wide*:

- :func:`resolve_workers` — explicit argument, then the
  ``REPRO_WORKERS`` environment variable, then 1 (serial);
- :func:`plan_pool` — the serial path stays the reference
  implementation, and the planner *falls back to it* whenever a pool
  cannot win: one effective worker, fewer than two items, or a host
  without spare cores (``os.cpu_count()``).  Spawning four processes
  on a single-core box is how the old code turned "parallel" into a
  0.77x slowdown.
"""

from __future__ import annotations

import os
from typing import Optional, Tuple

__all__ = ["plan_pool", "resolve_workers"]

ENV_WORKERS = "REPRO_WORKERS"

#: Below this many items a pool's startup cost cannot amortise.
MIN_POOL_ITEMS = 2


def resolve_workers(n_workers: Optional[int] = None) -> int:
    """Effective worker count: argument, ``$REPRO_WORKERS``, else 1."""
    if n_workers is None:
        env = os.environ.get(ENV_WORKERS)
        if env:
            try:
                n_workers = int(env)
            except ValueError:
                raise ValueError(
                    f"REPRO_WORKERS must be an integer, got {env!r}"
                ) from None
    if n_workers is None or n_workers < 1:
        return 1
    return int(n_workers)


def plan_pool(
    requested: int, n_items: int, cpu_count: Optional[int] = None
) -> Tuple[int, str, str]:
    """Adaptive fan-out plan: ``(workers, mode, reason)``.

    ``mode`` is ``"pool"`` or ``"serial"``.  The pool engages only
    when it can plausibly win: more than one worker requested, at
    least :data:`MIN_POOL_ITEMS` items, and more than one CPU — the
    worker count is capped at both the item count and the host's
    cores.  ``cpu_count`` overrides ``os.cpu_count()`` for tests.
    """
    cpus = cpu_count if cpu_count is not None else (os.cpu_count() or 1)
    if requested <= 1:
        return 1, "serial", "one worker requested"
    if n_items < MIN_POOL_ITEMS:
        return 1, "serial", f"only {n_items} item(s)"
    if cpus <= 1:
        return 1, "serial", f"host has {cpus} cpu(s); a pool cannot win"
    workers = min(requested, n_items, cpus)
    if workers <= 1:
        return 1, "serial", "effective worker count is 1"
    return (
        workers,
        "pool",
        f"min(requested {requested}, items {n_items}, cpus {cpus})",
    )
