"""Performance layer: artifact cache, parallel runner, benchmarks.

``repro.perf`` keeps the reproduction fast without touching its
numerics:

- :mod:`repro.perf.cache` — content-addressed disk cache for the
  expensive offline artifacts (trained DBN policies and everything
  bundled with them: sized capacitor banks, LUT samples, solar-class
  centroids);
- :mod:`repro.perf.parallel` — worker-count resolution and the
  process-pool fan-out plan of the supervised executor;
- :mod:`repro.perf.bench` — the ``repro bench`` perf-regression
  harness behind ``BENCH_perf.json``.
"""

from .cache import (
    ArtifactCache,
    cache_enabled,
    default_cache,
    default_cache_dir,
    hash_key,
)
from .parallel import resolve_workers

__all__ = [
    "ArtifactCache",
    "cache_enabled",
    "default_cache",
    "default_cache_dir",
    "hash_key",
    "resolve_workers",
]
