"""End-to-end benchmark of the campaign pipeline.

Three workloads drive the public campaign API (``CampaignSpec`` ->
``run_campaign`` into a SQLite store -> warm re-run -> aggregate table),
each pass in a fresh child process (``child.py``) with the serial
scheduler and no ``REPRO_*`` variables (see ``workloads.py`` for why
each workload exists):

* ``des-paper``      -- the DES on a fig07-style protocol x n grid;
* ``rounds-deep``    -- the array round engine at n = 1000;
* ``campaign-small`` -- 891 tiny object-engine runs, store-heavy.

Run from the repository root::

    python3 perfbench/run.py --workload des-paper --seed 1 --seconds 45
    python3 perfbench/run.py --workload des-paper --trace 1
    python3 perfbench/run.py --workload rounds-deep --repeat 5
    python3 perfbench/run.py --workload campaign-small --digests
    python3 perfbench/run.py --pin          # rewrite digests.json

``--trace 0`` prints every end-to-end metric by name and unit; the last
stdout line is a JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 1`` runs one untraced and one traced pass and
prints the per-layer metrics plus ``trace.overhead_share``.  The exit
code is 1 when any output digest differs (from the pinned digests of
seed 1, between passes, or between the traced and untraced pass), when
a run raises, or when a warm pass executes anything; it is 2 when the
repository sources are absent.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".perfbench")
DIGESTS = os.path.join(HERE, "digests.json")

sys.path.insert(0, HERE)
import workloads  # noqa: E402  (sibling module; needs no repro import)

#: end-to-end metrics: name -> unit
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "run_s_p50": "s",
    "warm_s": "s",
    "peak_rss_mb": "MB",
}

#: cold passes per run, fixed per workload so that every commit measures
#: the same work.  ``--seconds`` is only a cap: on a 2-core Xeon a run of
#: any workload takes 25-30 s, two thirds of the default cap of 45 s.
PASSES = {"des-paper": 1, "rounds-deep": 1, "campaign-small": 2}

#: setup-only children per run, on top of the passes' own setups
SETUP_PROBES = 3

#: warm-only children per run, on top of the passes' own warm passes
WARM_CHILDREN = 3

#: hard limit for one child process
CHILD_TIMEOUT_S = 170.0


class BenchError(RuntimeError):
    """A child failed in a way that leaves nothing to measure."""


# ----------------------------------------------------------------------
# Children
# ----------------------------------------------------------------------
def spawn(workload: str, seed: int, index: int, *, trace: bool = False,
          setup_only: bool = False, warm_only: bool = False,
          keep: bool = False) -> dict:
    """Run one child pass and return its JSON report.

    The pass works in ``.perfbench/<workload>-<index>``, which is removed
    afterwards unless ``keep`` (a warm-only child reads the store that
    pass 0 left there).
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    # a different hash seed per pass: equal digests across passes show
    # the outputs do not depend on it
    env["PYTHONHASHSEED"] = str(index + 1)
    tmp = os.path.join(SCRATCH, f"{workload}-{index}")
    cmd = [
        sys.executable, os.path.join(HERE, "child.py"),
        "--workload", workload, "--seed", str(seed), "--tmp", tmp,
        "--repo", ROOT,
    ]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    if warm_only:
        cmd.append("--warm-only")
    started = time.monotonic()
    cmd += ["--spawned-at", repr(started)]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} pass {index} timed out") from None
    finally:
        if not keep:
            shutil.rmtree(tmp, ignore_errors=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise BenchError(
            f"{workload} pass {index} exited with {proc.returncode}"
        )
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["duration_s"] = time.monotonic() - started
    return report


def load_pins() -> Dict[str, List[str]]:
    try:
        with open(DIGESTS, encoding="utf-8") as fh:
            return json.load(fh)["digests"]
    except (OSError, ValueError, KeyError):
        return {}


def combined(digests: List[str]) -> str:
    return hashlib.sha256("\n".join(digests).encode("ascii")).hexdigest()


def check_outputs(workload: str, seed: int, passes: List[dict]) -> List[str]:
    """Failures over a run's passes: their own plus every digest that
    differs between passes or from the pinned digests."""
    failures = [f for p in passes for f in p["failures"]]
    first = passes[0]["digests"]
    for k, p in enumerate(passes[1:], 1):
        bad = sum(a != b for a, b in zip(first, p["digests"]))
        if bad or len(first) != len(p["digests"]):
            failures += [f"pass {k}: {bad} digest(s) differ from pass 0"] * max(bad, 1)
    pins = load_pins().get(workload) if seed == workloads.DEFAULT_SEED else None
    if pins is not None:
        bad = [i for i, (a, b) in enumerate(zip(first, pins)) if a != b]
        if len(pins) != len(first):
            failures.append(f"{len(first)} runs but {len(pins)} pinned digests")
        failures += [f"run {i}: digest differs from the pinned one" for i in bad]
    return failures


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def sim_speed(passes: List[dict], family: str) -> float:
    """Simulated seconds per wall second over one protocol family's DES
    runs (0.0 when the workload has none)."""
    sim = wall = 0.0
    for p in passes:
        for run_s, backend, protocol, sim_time in p["jobs"]:
            ss = protocol.startswith("ss-spst")
            if backend == "des" and ss == (family == "ss"):
                sim += sim_time
                wall += run_s
    return sim / wall if wall else 0.0


def end_to_end(passes: List[dict], setups: List[float],
               warms: List[float]) -> Dict[str, float]:
    """The end-to-end metrics of one run.

    The passes of a run repeat identical inputs, and the shared machine
    only ever slows a pass down, so times take the fastest pass (and
    each run's fastest repeat); set-up takes the median of every start.
    """
    return {
        "wall_s": min(p["wall_s"] for p in passes),
        "setup_s": statistics.median(setups),
        "run_s_p50": statistics.median(run_times(passes)),
        "warm_s": min(warms),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def run_times(passes: List[dict]) -> List[float]:
    """Each run's fastest time over the passes."""
    return [min(rs) for rs in zip(*([j[0] for j in p["jobs"]] for p in passes))]


def within(workload: str, start: float, seconds: float) -> None:
    """Fail the run once it has taken longer than ``seconds``."""
    elapsed = time.monotonic() - start
    if elapsed > seconds:
        raise BenchError(
            f"{workload}: the fixed schedule of {SETUP_PROBES} setup probes, "
            f"{PASSES[workload]} passes and {WARM_CHILDREN} warm children "
            f"exceeded --seconds {seconds:g} ({elapsed:.1f} s so far)"
        )


def measure(workload: str, seed: int, seconds: float) -> dict:
    """One untraced run: setup probes, ``PASSES[workload]`` cold passes,
    then warm-only children on the first pass's store.

    The schedule never depends on measured times, so every commit runs
    the same work; ``seconds`` is only a cap.
    """
    start = time.monotonic()
    setups = []
    for k in range(SETUP_PROBES):
        setups.append(spawn(workload, seed, k, setup_only=True)["setup_s"])
        within(workload, start, seconds)
    passes: List[dict] = []
    try:
        for k in range(PASSES[workload]):
            passes.append(spawn(workload, seed, k, keep=k == 0))
            within(workload, start, seconds)
        warm = []
        for _ in range(WARM_CHILDREN):
            warm.append(spawn(workload, seed, 0, warm_only=True, keep=True))
            within(workload, start, seconds)
    finally:
        shutil.rmtree(os.path.join(SCRATCH, f"{workload}-0"), ignore_errors=True)
    failures = check_outputs(workload, seed, passes)
    for w in warm:
        failures += w["failures"]
        if w["digests"] != passes[0]["digests"]:
            failures.append("a warm-only child read back other records")
    setups += [p["setup_s"] for p in passes]
    warms = [p["warm_s"] for p in passes] + [w["warm_s"] for w in warm]
    return {
        "passes": passes,
        "metrics": end_to_end(passes, setups, warms),
        "samples": {"passes": len(passes), "setups": len(setups),
                    "warms": len(warms), "runs": len(passes[0]["jobs"])},
        "failures": failures,
        "attempted": sum(p["attempted"] for p in passes),
        "elapsed_s": time.monotonic() - start,
    }


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def print_header(workload: str, seed: int, passes: List[dict]) -> None:
    print(f"# perfbench workload={workload} seed={seed}: {workloads.WHY[workload]}")
    print(f"# fingerprint {json.dumps(passes[0]['fingerprint'], sort_keys=True)}")
    pinned = seed == workloads.DEFAULT_SEED and workload in load_pins()
    print(
        f"# outputs: {len(passes[0]['digests'])} run digests, combined "
        f"{combined(passes[0]['digests'])} "
        f"({'checked against pins' if pinned else 'no pins for this seed'})"
    )


def result_line(correct: bool, attempted: int, failed: int,
                metrics: Dict[str, Optional[float]], units: Dict[str, str]) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in units
        },
    })


def report_failures(failures: List[str]) -> None:
    for f in failures[:20]:
        print(f"perfbench: FAILED {f}", file=sys.stderr)
    if len(failures) > 20:
        print(f"perfbench: ... {len(failures) - 20} more", file=sys.stderr)


def cmd_measure(args) -> int:
    res = measure(args.workload, args.seed, args.seconds)
    m, s, failures = res["metrics"], res["samples"], res["failures"]
    print_header(args.workload, args.seed, res["passes"])
    notes = {
        "wall_s": f"fastest of {s['passes']} cold campaign passes",
        "setup_s": f"median of {s['setups']} child starts",
        "run_s_p50": f"median of {s['runs']} runs, each its fastest "
        f"of {s['passes']}",
        "warm_s": f"fastest of {s['warms']} warm passes + table",
        "peak_rss_mb": f"median of {s['passes']} passes",
    }
    for name, unit in END_TO_END.items():
        print(f"{name:<20s} {m[name]:>14.6f} {unit:<8s} {notes[name]}")
    times = run_times(res["passes"])
    if len(times) > 1:
        print(f"{'run_s_p90':<20s} {statistics.quantiles(times, n=10)[-1]:>14.6f} "
              f"{'s':<8s} 90th percentile of the same {len(times)} runs")
    failed = len(failures)
    print(f"{'failed_share':<20s} {failed / res['attempted']:>14.6f} "
          f"{'ratio':<8s} {failed}/{res['attempted']} runs")
    if args.workload == "des-paper":
        for fam in ("ss", "ondemand"):
            print(f"{'sim_speed_' + fam:<20s} "
                  f"{sim_speed(res['passes'], fam):>14.6f} {'sim-s/s':<8s}")
    raw = res["passes"][0]["raw"]
    print(f"# unscaled first pass: wall_s={raw['wall_s']:.6f} "
          f"setup_s={raw['setup_s']:.6f} warm_s={raw['warm_s']:.6f}; machine "
          f"speed {raw['speed']:.4f} x reference")
    for line in res["passes"][0]["table"].splitlines():
        print(f"# {line}")
    if args.digests:
        for d in res["passes"][0]["digests"]:
            print(f"# digest {d}")
    report_failures(failures)
    print(result_line(not failures, res["attempted"], failed, m, END_TO_END))
    return 1 if failures else 0


def cmd_trace(args) -> int:
    import hooks

    base = spawn(args.workload, args.seed, 0)
    traced = spawn(args.workload, args.seed, 1, trace=True)
    passes = [base, traced]
    failures = check_outputs(args.workload, args.seed, passes)
    print_header(args.workload, args.seed, passes)
    layers = dict(traced["layers"])
    layers["sim_speed_ss"] = sim_speed([base], "ss")
    layers["sim_speed_ondemand"] = sim_speed([base], "ondemand")
    layers["trace.overhead_share"] = (
        (traced["wall_s"] - base["wall_s"]) / base["wall_s"]
    )
    units = per_layer_units(hooks.METRIC_HOOKS)
    for name in units:
        value = layers[name]
        shown = "null" if value is None else f"{value:.6f}"
        print(f"{name:<32s} {shown:>18s} {units[name]}")
    for hook in traced.get("missing_hooks", []):
        print(f"# missing hook {hook}")
    report_failures(failures)
    attempted = base["attempted"] + traced["attempted"]
    print(result_line(not failures, attempted, len(failures), layers, units))
    return 1 if failures else 0


def per_layer_units(metric_hooks: Dict[str, tuple]) -> Dict[str, str]:
    units = {}
    for name in list(metric_hooks) + [
        "sim_speed_ss", "sim_speed_ondemand", "trace.overhead_share"
    ]:
        if name.endswith("_s") or name == "hub.s":
            units[name] = "s"
        elif name.endswith("_share") or name.endswith("_per_frame"):
            units[name] = "ratio"
        elif name.startswith("sim_speed"):
            units[name] = "sim-s/s"
        else:
            units[name] = "count"
    return units


def cmd_repeat(args) -> int:
    """Steadiness report: ``--repeat K`` runs over seeds seed..seed+K-1."""
    values: Dict[str, List[float]] = {name: [] for name in END_TO_END}
    failed = 0
    for k in range(args.repeat):
        res = measure(args.workload, args.seed + k, args.seconds)
        failed += len(res["failures"])
        report_failures(res["failures"])
        line = " ".join(f"{n}={v:.6f}" for n, v in res["metrics"].items())
        raw = res["passes"][0]["raw"]
        print(f"# seed={args.seed + k} passes={res['samples']['passes']} {line} "
              f"(unscaled wall_s={raw['wall_s']:.6f} speed={raw['speed']:.4f}; "
              f"run took {res['elapsed_s']:.1f} s of --seconds {args.seconds:g})",
              flush=True)
        for name, v in res["metrics"].items():
            values[name].append(v)
    stats = {}
    print(f"{'metric':<14s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/med':>8s}")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        stats[name] = {"median": med, "q1": q1, "q3": q3, "iqr_share": spread}
        print(f"{name:<14s} {med:>12.6f} {q1:>12.6f} {q3:>12.6f} {spread:>8.4f}")
    print(json.dumps({"workload": args.workload, "runs": args.repeat,
                      "failed": failed, "stats": stats}))
    return 1 if failed else 0


def cmd_pin(args) -> int:
    """Rewrite ``digests.json`` from one pass per workload at seed 1."""
    names = [args.workload] if args.workload else list(workloads.WHY)
    pins = load_pins()
    for name in names:
        report = spawn(name, workloads.DEFAULT_SEED, 0)
        if report["failures"]:
            report_failures(report["failures"])
            return 1
        pins[name] = report["digests"]
        print(f"# pinned {len(report['digests'])} digests for {name}: "
              f"combined {combined(report['digests'])}")
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump({"seed": workloads.DEFAULT_SEED, "digests": pins}, fh,
                  indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the campaign pipeline."
    )
    parser.add_argument("--workload", choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0,
                        help="cap on one run; exceeding it fails the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="steadiness report over this many seeds")
    parser.add_argument("--digests", action="store_true",
                        help="also print every run's output digest")
    parser.add_argument("--pin", action="store_true",
                        help="rewrite the pinned digests of seed 1")
    args = parser.parse_args(argv)
    if not os.path.isfile(
        os.path.join(ROOT, "src", "repro", "experiments", "campaign.py")
    ):
        print(f"perfbench: no repro sources under {ROOT}/src", file=sys.stderr)
        return 2
    if args.pin:
        return cmd_pin(args)
    if args.workload is None:
        parser.error("--workload is required")
    os.makedirs(SCRATCH, exist_ok=True)
    try:
        if args.repeat:
            return cmd_repeat(args)
        return cmd_trace(args) if args.trace else cmd_measure(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
