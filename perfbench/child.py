"""One fleet run in a fresh interpreter, as a user's ``repro`` call is.

Usage: ``python3 child.py REQUEST.json RESULT.json``.  Started by
:mod:`run` with ``PYTHONPATH`` pointing at the checkout's ``src``.

The first thing timed is ``import repro.cli``; then the cache directory
is prepared, ``FleetRunner.run()`` is timed, and the output is checked
outside the timed region.  Modes:

``pristine``
    Run the workload's fleet with the ``fleet_default`` settings on a
    cold cache and keep every other shard checkpoint as the half-filled
    store that ``fleet_resume_pool`` resumes from.
``setup``
    Only the set-up: the import and the cache preparation.
``measure``
    Set-up, then one measured run; with ``traced`` the per-layer
    wrappers of :mod:`pb_layers` are in place around it.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from pathlib import Path


def main(argv) -> int:
    request = json.loads(Path(argv[1]).read_text())
    start = time.perf_counter()
    import repro.cli  # noqa: F401  (timed: every repro command pays it)

    import_s = time.perf_counter() - start
    src = Path(request["src"]).resolve()
    if src not in Path(repro.__file__).resolve().parents:
        raise RuntimeError(
            f"imported repro from {repro.__file__}, not from {src}"
        )

    import numpy

    import pb_fleet
    from pb_config import WORKLOADS
    from pb_layers import LayerRecorder

    workload = WORKLOADS[request["workload"]]
    seed = int(request["seed"])
    cache_dir = Path(request["cache_dir"])
    out = {
        "import_s": import_s,
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
    }

    if request["mode"] == "pristine":
        spec = pb_fleet.fleet_spec(WORKLOADS["fleet_default"], seed)
        pb_fleet.point_cache(cache_dir, enabled=True)
        result, log, wall = pb_fleet.run_once(spec, workers=None)
        kept = pb_fleet.make_half_store(cache_dir, Path(request["half_store"]))
        out.update(
            wall_s=wall,
            n_nodes=spec.n_nodes,
            quarantined=len(result.failed_nodes),
            fingerprint=result.fingerprint(),
            kept=len(kept),
            shards=len(log.shards),
        )
    else:
        spec = pb_fleet.fleet_spec(workload, seed)
        prep_start = time.perf_counter()
        half = request["half_store"]
        pb_fleet.prepare(workload, cache_dir, Path(half) if half else None)
        out["prep_s"] = time.perf_counter() - prep_start
    if request["mode"] == "measure":
        workers = request.get("workers", workload.workers)
        recorder = LayerRecorder() if request["traced"] else None
        if recorder is not None:
            recorder.install()
        try:
            result, log, wall = pb_fleet.run_once(spec, workers=workers)
            fingerprint = result.fingerprint()
        finally:
            if recorder is not None:
                recorder.uninstall()
        rss = pb_fleet.peak_rss_mb()
        ids = pb_fleet.sample_ids(spec.n_nodes, workload.sample)
        out.update(
            wall_s=wall,
            simulated=log.simulated,
            served=log.served,
            peak_rss_mb=rss,
            n_nodes=spec.n_nodes,
            workers=workers,
            quarantined=len(result.failed_nodes),
            fingerprint=fingerprint,
            sample=ids,
            sample_mismatches=pb_fleet.check_sample(spec, result, ids),
        )
        if recorder is not None:
            out["layers"] = recorder.metrics(
                log.simulated, log.served, log.computed_shard_seconds()
            )
    Path(argv[2]).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
