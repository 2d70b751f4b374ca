"""Fleet benchmark: ``repro fleet run`` measured the way users run it.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fleet_default --seed 0 \\
        --seconds 16 --trace 0

Each measured run happens in a fresh interpreter (:mod:`child`) with
its own fresh ``REPRO_CACHE_DIR`` under ``.perfbench-work/`` in the
checkout, which is removed on exit.  Runs repeat until ``--seconds``
have passed (at least once), and every metric is the median over them;
``setup_s`` takes at least :data:`MIN_SETUPS` set-ups.

``--trace 0`` reports the end-to-end metrics of untraced runs.
``--trace 1`` alternates untraced and traced runs and reports the
per-layer metrics of the traced ones; the traced runs of a pooled
workload use one worker, because the wrappers cannot reach pool
workers.

Every run's output is checked: a fixed sample of node ids is
re-simulated through the per-node reference ``simulate_node``, every
run's fingerprint must equal the reference (the committed one at seed
0, else ``fleet_default``'s), and quarantined nodes count as failed.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path
from typing import Dict, List, Optional

from pb_config import (
    END_TO_END,
    LAYER_MAP,
    SPAN_LAYERS,
    WORKLOADS,
    expected_fingerprint,
    nodes_per_s,
    per_layer_metrics,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Cache directories and child I/O of running benchmarks.
WORK_ROOT = ROOT / ".perfbench-work"
#: Wall-clock cap of one invocation (the contract allows 180 s).
BUDGET_S = 170.0
#: Set-ups timed per untraced invocation at the least; set-up-only
#: children make up the number when fewer measured runs fit.
MIN_SETUPS = 3
#: The program's own stores in the working tree; a run must leave them
#: untouched (every child gets a fresh ``REPRO_CACHE_DIR`` instead).
GUARDED = (".repro-cache", ".benchmarks/history.jsonl", "BENCH_perf.json")


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    return env


class Session:
    """The child runs of one invocation, and the checks on their output."""

    def __init__(self, workload_name: str, seed: int, work: Path) -> None:
        self.workload = WORKLOADS[workload_name]
        self.seed = seed
        self.work = work
        self.deadline = time.monotonic() + BUDGET_S
        self.env = _child_env()
        self.reference: Optional[str] = expected_fingerprint(
            self.workload, seed
        )
        self.half_store: Optional[Path] = None
        self.host: Dict[str, object] = {}
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []
        self._count = 0

    def _child(self, request: dict) -> dict:
        self._count += 1
        tag = f"{self._count:03d}"
        request = {
            **request,
            "workload": self.workload.name,
            "seed": self.seed,
            "src": str(ROOT / "src"),
            "cache_dir": str(self.work / f"cache-{tag}"),
            "half_store": str(self.half_store) if self.half_store else None,
        }
        req_path = self.work / f"{tag}.request.json"
        res_path = self.work / f"{tag}.result.json"
        req_path.write_text(json.dumps(request))
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("time budget spent before the runs finished")
        # Own process group, so the child's pool workers go down with it.
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(req_path),
             str(res_path)],
            cwd=self.work,
            env=self.env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            _, stderr = proc.communicate(timeout=remaining)
        except BaseException as exc:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise BenchError("a run overran the time budget") from None
            raise
        if proc.returncode != 0:
            tail = "\n".join(stderr.strip().splitlines()[-5:])
            raise BenchError(f"run exited with {proc.returncode}:\n{tail}")
        out = json.loads(res_path.read_text())
        self.host = out["host"]
        if request["mode"] != "pristine":
            shutil.rmtree(request["cache_dir"], ignore_errors=True)
        return out

    def room_for(self, seconds: float) -> bool:
        """Whether a child expected to take ``seconds`` fits the budget."""
        return time.monotonic() + 1.25 * seconds + 5.0 < self.deadline

    def _account(self, out: dict) -> None:
        """Count the run's nodes and failures against the reference."""
        if self.reference is None:
            self.reference = out["fingerprint"]
        n = out["n_nodes"]
        failed = out["quarantined"] + len(out.get("sample_mismatches", ()))
        if out["fingerprint"] != self.reference:
            failed = n
            self.notes.append(
                f"fingerprint {out['fingerprint'][:12]} != reference "
                f"{self.reference[:12]}"
            )
        if out.get("sample_mismatches"):
            self.notes.append(
                f"nodes {out['sample_mismatches']} differ from "
                "simulate_node"
            )
        self.attempted += n
        self.failed += min(failed, n)

    def make_half_store(self) -> dict:
        """Run ``fleet_default`` cold; keep every other shard checkpoint."""
        self.half_store = self.work / "half-store"
        out = self._child({"mode": "pristine"})
        self._account(out)
        return out

    def set_up(self) -> float:
        """Seconds of one set-up alone: fresh import plus cache prep."""
        out = self._child({"mode": "setup"})
        return out["import_s"] + out["prep_s"]

    def measure(self, traced: bool, workers: Optional[int] = None) -> dict:
        request = {"mode": "measure", "traced": traced}
        if workers is not None:
            request["workers"] = workers
        out = self._child(request)
        self._account(out)
        return out


def _guarded_state() -> Dict[str, object]:
    """Files the benchmark must never write: their names, sizes, mtimes."""
    state: Dict[str, object] = {}
    for rel in GUARDED:
        path = ROOT / rel
        files = sorted(path.rglob("*")) if path.is_dir() else [path]
        state[rel] = [
            (str(f), f.stat().st_size, f.stat().st_mtime_ns)
            for f in files
            if f.is_file()
        ]
    return state


def _median(values) -> float:
    return statistics.median(list(values))


def end_to_end(runs: List[dict], setups: List[float]) -> Dict[str, float]:
    return {
        "setup_s": _median(setups),
        "wall_s": _median(r["wall_s"] for r in runs),
        "nodes_per_s": _median(
            nodes_per_s(r["simulated"], r["wall_s"]) for r in runs
        ),
        "peak_rss_mb": _median(r["peak_rss_mb"] for r in runs),
    }


def per_layer(plain: List[dict], traced: List[dict]):
    """Medians of the traced runs' layer metrics, plus ratio bases."""
    values: Dict[str, float] = {}
    bases: Dict[str, str] = {}
    for name in traced[0]["layers"]:
        values[name] = _median(r["layers"][name][0] for r in traced)
        base = traced[-1]["layers"][name][1]
        if base is not None:
            bases[name] = base
    values["cli.import_s"] = _median(r["import_s"] for r in plain + traced)
    plain_wall = _median(r["wall_s"] for r in plain)
    traced_wall = _median(r["wall_s"] for r in traced)
    values["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
    bases["trace.overhead_frac"] = (
        f"{traced_wall:.3f}s/{plain_wall:.3f}s - 1"
    )
    return values, bases


def repeat(session: Session, seconds: float, step):
    """Results of ``step()``, called until ``seconds`` have passed (at
    least once) or another call would not fit the budget."""
    results = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        results.append(step())
        took = time.monotonic() - began
        if time.monotonic() - start >= seconds:
            return results
        if not session.room_for(took):
            return results


def traced_workers(session: Session) -> Optional[int]:
    """Worker count of a traced pair: wrappers cannot reach pool workers."""
    workers = session.workload.workers
    if workers is not None and workers > 1:
        session.notes.append(
            "traced and paired untraced runs use workers=1: the "
            "wrappers cannot reach pool workers"
        )
        return 1
    return workers


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------
def _fmt(value: float) -> str:
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return f"{value:.4f}"


def print_end_to_end(
    metrics: Dict[str, float], runs: int, setups: int, label: str
):
    print(
        f"end-to-end ({label}; median of {runs} runs, setup_s of "
        f"{setups} set-ups)"
    )
    for name, unit in END_TO_END.items():
        print(f"  {name:<14} {metrics[name]:>12.4f} {unit}")


def print_layers(values: Dict[str, float], bases: Dict[str, str], runs: int):
    units = per_layer_metrics()
    print(f"per-layer (traced; median of {runs} runs)")
    print(
        f"  {'layer':<24}{'calls':>8}{'s':>10}{'self_s':>10}  moves"
    )
    shown = set()
    for layer in ("cli",) + SPAN_LAYERS + ("fleet.shard_s", "trace"):
        moves, where = LAYER_MAP[layer]
        if layer in SPAN_LAYERS:
            row = [values[f"{layer}.{k}"] for k in ("calls", "s", "self_s")]
            shown.update(f"{layer}.{k}" for k in ("calls", "s", "self_s"))
            print(
                f"  {layer:<24}{_fmt(row[0]):>8}{row[1]:>10.4f}"
                f"{row[2]:>10.4f}  {moves} on {where}"
            )
        else:
            print(f"  {layer:<24}{'':>28}  {moves} on {where}")
        for name in units:
            if name in shown or not name.startswith(layer + "."):
                continue
            shown.add(name)
            base = f" = {bases[name]}" if name in bases else ""
            print(
                f"    {name:<40} {_fmt(values[name]):>12} "
                f"{units[name][0]}{base}"
            )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no repro sources under {ROOT / 'src'}",
            file=sys.stderr,
        )
        return 2

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    guarded = _guarded_state()
    work = WORK_ROOT / f"{args.workload}-{os.getpid()}-{uuid.uuid4().hex[:8]}"
    work.mkdir(parents=True)
    session = Session(args.workload, args.seed, work)
    try:
        fixture = (
            session.make_half_store()
            if session.workload.cache == "half"
            else None
        )
        if args.trace:
            workers = traced_workers(session)
            pairs = repeat(
                session, args.seconds,
                lambda: (
                    session.measure(traced=False, workers=workers),
                    session.measure(traced=True, workers=workers),
                ),
            )
            plain, traced = [p for p, _ in pairs], [t for _, t in pairs]
        else:
            plain = repeat(
                session, args.seconds, lambda: session.measure(traced=False)
            )
        setups = [r["import_s"] + r["prep_s"] for r in plain]
        while not args.trace and len(setups) < MIN_SETUPS:
            setups.append(session.set_up())
        if _guarded_state() != guarded:
            raise BenchError(f"a run wrote to one of {', '.join(GUARDED)}")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    host = {"cpu_count": os.cpu_count(), **session.host}
    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
        f"host={json.dumps(host, sort_keys=True)}"
    )
    if fixture is not None:
        print(
            f"fixture: cold fleet_default run {fixture['wall_s']:.2f}s, kept "
            f"{fixture['kept']}/{fixture['shards']} shard checkpoints"
        )
    e2e = end_to_end(plain, setups)
    workers = plain[0]["workers"]
    print_end_to_end(
        e2e, len(plain), len(setups),
        f"untraced, workers={workers if workers is not None else 1}",
    )
    if args.trace:
        values, bases = per_layer(plain, traced)
        print_layers(values, bases, len(traced))
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, (unit, _) in per_layer_metrics().items()
        }
    else:
        metrics = {
            name: {"value": e2e[name], "unit": unit}
            for name, unit in END_TO_END.items()
        }
    rate = session.failed / session.attempted
    print(
        f"error_rate: {rate:.4f} ({session.failed}/{session.attempted} "
        f"nodes), reference fingerprint {session.reference}"
    )
    for note in session.notes:
        print(f"note: {note}")
    print(
        json.dumps(
            {
                "correct": session.failed == 0,
                "attempted": session.attempted,
                "failed": session.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
