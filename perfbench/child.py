"""One pass of one workload, run in a fresh process by ``run.py``.

A pass opens a fresh SQLite store, runs every campaign spec of the
workload cold through ``run_campaign`` with the serial
:class:`TimedScheduler`, reopens the store and re-runs the specs warm
(which must execute nothing), then renders the aggregate table.  A
``--warm-only`` child repeats just the warm part on a stored pass, the
way a later process reading a finished campaign would.  It prints one
JSON line: timings, every run's output digest, failures, peak RSS and
the environment fingerprint (plus the per-layer metrics when traced).

The shared machine's speed drifts by +-20% within seconds and further
over minutes, for identical work.  A :class:`Calibrator` therefore
times a fixed piece of work that does not touch ``repro`` (a small
heap-and-dict event loop plus a numpy sort, like the DES and the array
engine) next to every measurement, and each reported time is scaled to
the reference speed: ``raw * REFERENCE_S / calibration time``.  A run
uses the calibration samples just before and after it; the pass and
warm times use the samples taken during them.  Raw times are reported
too.

Usage (normally spawned by ``run.py``)::

    PYTHONPATH=src python3 perfbench/child.py --workload des-paper \
        --seed 1 --spawned-at <time.monotonic() of the parent> \
        --tmp .perfbench/pass0 [--trace | --setup-only | --warm-only]
"""

from __future__ import annotations

import argparse
import hashlib
import heapq
import json
import math
import os
import resource
import sys
import time
import traceback
from typing import List, Optional

import numpy as np

#: calibration sample time at the reference machine speed
REFERENCE_S = 0.025
#: in a cold pass, calibrate before a run when this long since the last
SAMPLE_EVERY_S = 0.25
#: samples taken around the set-up point and the warm pass
POINT_SAMPLES = 3


def _calibration_work() -> float:
    heap: list = []
    state = {i: [0.0, 0.0] for i in range(500)}
    for i in range(500):
        heapq.heappush(heap, (i * 0.01, i, i))
    for seq in range(500, 20500):
        t, _, node = heapq.heappop(heap)
        st = state[node]
        st[0] += math.hypot(t, st[1])
        st[1] = t
        heapq.heappush(
            heap, (t + 0.37 + (node % 7) * 0.01, seq, (node * 31 + 7) % 500)
        )
    a = np.arange(200_000, dtype=float)[::-1] * 1.000001
    return float(np.sort(a)[::997].sum())


class Calibrator:
    """Times :func:`_calibration_work`; keeps every sample."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.spent_s = 0.0
        self._last = float("-inf")

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            t0 = time.perf_counter()
            _calibration_work()
            took = time.perf_counter() - t0
            self.samples.append(took)
            self.spent_s += took
        self._last = time.perf_counter()

    def due(self) -> bool:
        return time.perf_counter() - self._last >= SAMPLE_EVERY_S

    def scale(self, start: int = 0, end: Optional[int] = None) -> float:
        """REFERENCE_S over the mean of ``samples[start:end]``."""
        chunk = self.samples[start:end]
        return REFERENCE_S * len(chunk) / sum(chunk)


def record_digest(record: dict) -> str:
    """sha256 of the canonical JSON record with ``elapsed_s`` removed."""
    body = {k: v for k, v in record.items() if k != "elapsed_s"}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def make_scheduler(tracer, calibrator: Calibrator, setup_only: bool = False):
    """A serial scheduler that times each job and keeps its record.

    It calibrates at the first dispatch and between runs, outside the
    timed runs; each job notes the index of the sample before it.  With
    ``setup_only`` it notes the first dispatch and cancels the campaign
    before any run executes.
    """
    from repro.experiments.scheduler import CancelCampaign, Scheduler

    class TimedScheduler(Scheduler):
        name = "timed-serial"

        def __init__(self) -> None:
            self.first_dispatch: Optional[float] = None
            # (index, config, run_s, record, calibration sample before)
            self.jobs: List[tuple] = []
            self.errors: List[str] = []
            self.land_s = 0.0

        def execute(self, fn, jobs, on_result, store=None) -> None:
            if setup_only and jobs:
                self.first_dispatch = time.monotonic()
                calibrator.sample(POINT_SAMPLES)
                raise CancelCampaign()
            run = tracer.wrap("run", fn) if tracer is not None else fn
            land = (
                tracer.wrap("campaign.land", on_result)
                if tracer is not None else on_result
            )
            for i, payload in jobs:
                if self.first_dispatch is None:
                    self.first_dispatch = time.monotonic()
                    calibrator.sample(POINT_SAMPLES)
                elif calibrator.due():
                    calibrator.sample()
                before = len(calibrator.samples) - 1
                t0 = time.perf_counter()
                try:
                    record = run(payload)
                except Exception:  # a failed run is counted, not fatal
                    self.errors.append(traceback.format_exc())
                    continue
                t1 = time.perf_counter()
                land(i, record)
                self.land_s += time.perf_counter() - t1
                self.jobs.append((i, payload, t1 - t0, record, before))

    return TimedScheduler


def fingerprint(repo: str) -> dict:
    """Facts about the machine and code that a result depends on."""
    import platform

    import numpy

    from repro.core import kernels

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": kernels.numba_available(),
        "kernel": kernels.active_kernel(),
        "commit": git_commit(repo),
    }


def git_commit(repo: str) -> Optional[str]:
    """HEAD of ``repo`` read from ``.git`` directly; None outside git."""
    git = os.path.join(repo, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def warm_pass(specs, store_path: str, scheduler_cls, calibrator) -> tuple:
    """Re-run every spec on the stored records through a fresh store
    connection, then render the aggregate table.

    Returns ``(scaled seconds, raw seconds, [(result, scheduler, table)
    per spec], failures)``; any run the warm pass executes is a failure.
    """
    import workloads
    from repro.experiments.campaign import run_campaign
    from repro.experiments.store import open_store

    first = len(calibrator.samples)
    calibrator.sample(POINT_SAMPLES)
    t0 = time.perf_counter()
    store = open_store(store_path)
    warm = []
    for spec in specs:
        scheduler = scheduler_cls()
        result = run_campaign(spec, store=store, scheduler=scheduler)
        backend = spec.backends()[0]
        table = result.format_table(workloads.TABLE_METRICS[backend])
        warm.append((result, scheduler, table))
    store.close()
    seconds = time.perf_counter() - t0
    calibrator.sample(POINT_SAMPLES)
    failures = [
        f"{spec.name}: the warm pass executed {result.executed} run(s)"
        for spec, (result, scheduler, _) in zip(specs, warm)
        if result.executed or scheduler.jobs or scheduler.errors
    ]
    return seconds * calibrator.scale(first), seconds, warm, failures


def reloaded_digests(specs, warm) -> List[str]:
    """Digests of the records rebuilt from what the warm store served."""
    from repro.experiments.store import record_from_result

    return [
        record_digest(record_from_result(r)) if r is not None else ""
        for (result, _, _) in warm
        for r in result.results
    ]


def run_pass(args) -> dict:
    import workloads
    from repro.experiments.campaign import run_campaign
    from repro.experiments.store import open_store

    tracer = None
    if args.trace:
        import hooks
        from tracing import Tracer

        tracer = Tracer()
        hooks.install(tracer)

    specs = workloads.build(args.workload, args.seed)
    for spec in specs:
        spec.configs()  # constructs, and so validates, every run
    os.makedirs(args.tmp, exist_ok=True)
    store_path = os.path.join(args.tmp, "store.sqlite")
    calibrator = Calibrator()
    scheduler_cls = make_scheduler(tracer, calibrator, args.setup_only)
    if args.warm_only:
        warm_s, raw_warm_s, warm, failures = warm_pass(
            specs, store_path, scheduler_cls, calibrator
        )
        return {
            "warm_s": warm_s,
            "raw": {"warm_s": raw_warm_s},
            "digests": reloaded_digests(specs, warm),
            "failures": failures,
        }
    for suffix in ("", "-wal", "-shm"):  # a cold pass needs a fresh store
        if os.path.exists(store_path + suffix):
            os.remove(store_path + suffix)

    # cold: every run executes and lands in the store
    store = open_store(store_path)
    if args.setup_only:
        scheduler = scheduler_cls()
        run_campaign(specs[0], store=store, scheduler=scheduler)
        store.close()
        setup_s = scheduler.first_dispatch - args.spawned_at
        return {
            "setup_s": setup_s * calibrator.scale(),
            "raw": {"setup_s": setup_s},
        }
    cold = []
    wall_s = 0.0
    first_dispatch = None
    for spec in specs:
        scheduler = scheduler_cls()
        t0 = time.perf_counter()
        spent = calibrator.spent_s
        run_campaign(spec, store=store, scheduler=scheduler)
        wall_s += time.perf_counter() - t0 - (calibrator.spent_s - spent)
        cold.append(scheduler)
        if first_dispatch is None:
            first_dispatch = scheduler.first_dispatch
    calibrator.sample()  # closes the last run's bracket
    store.close()
    cold_samples = len(calibrator.samples)

    warm_s, raw_warm_s, warm, failures = warm_pass(
        specs, store_path, scheduler_cls, calibrator
    )
    digests: List[str] = []
    jobs = []
    for spec, scheduler in zip(specs, cold):
        failures += [f"{spec.name}: run raised:\n{e}" for e in scheduler.errors]
        by_index = {job[0]: job[2:] for job in scheduler.jobs}
        for i, cfg in enumerate(spec.configs()):
            if i in by_index:
                run_s, record, before = by_index[i]
                digests.append(record_digest(record))
                # the samples just before and just after the run
                scale = calibrator.scale(before, before + 2)
                jobs.append(
                    (run_s * scale, cfg.backend, cfg.protocol, cfg.sim_time)
                )
            else:
                digests.append("")
    if reloaded_digests(specs, warm) != digests:
        failures.append(
            "the warm store did not return the records the cold pass wrote"
        )

    out = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": (first_dispatch - args.spawned_at)
        * calibrator.scale(0, POINT_SAMPLES),
        "wall_s": wall_s * calibrator.scale(0, cold_samples),
        "warm_s": warm_s,
        "raw": {
            "setup_s": first_dispatch - args.spawned_at,
            "wall_s": wall_s,
            "warm_s": raw_warm_s,
            "speed": calibrator.scale(0, cold_samples),
        },
        "jobs": jobs,
        "attempted": sum(spec.size() for spec in specs),
        "digests": digests,
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "fingerprint": fingerprint(args.repo),
        "table": "\n".join(table for _, _, table in warm),
    }
    if tracer is not None:
        import hooks

        run_s = sum(job[2] for s in cold for job in s.jobs)
        land_s = sum(s.land_s for s in cold)
        out["layers"] = hooks.layer_metrics(tracer, run_s, land_s, wall_s)
        out["missing_hooks"] = list(tracer.missing)
        tracer.dump(os.path.join(args.tmp, "..", f"trace-{args.workload}.jsonl"))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--repo", default=".")
    parser.add_argument("--trace", action="store_true")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--setup-only", action="store_true",
        help="stop at the first dispatched run and report setup_s only",
    )
    mode.add_argument(
        "--warm-only", action="store_true",
        help="only re-run the workload on the store a cold pass left in "
        "--tmp, and report warm_s",
    )
    args = parser.parse_args()
    print(json.dumps(run_pass(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
