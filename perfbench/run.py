"""End-to-end and per-layer benchmark of torusclass.

Usage, from the repository root::

    python3 perfbench/run.py --workload table-n8 --seed 1 --seconds 40 --trace 0

The program is used as its users use it: each route runs as the in-process
``torusclass.cli.main(["class", "--partition", P, "--method", R, "--format",
"json"])`` for R in lambda, rho and recursion, and the norm-one class as the
library call ``norm_one_class``.  Every pass runs in fresh interpreters
(child.py), one child at a time, so no memo table carries work from one pass
to the next.  Outputs are checked outside the timed region (check.py).

Workloads (closed loop, one client; the seed shuffles the order of the
inputs, which are recorded in the output):

* ``table-n8``: the 22 partitions of 8 in one interpreter per pass, so the
  memo tables (``mark_matrix``, ``_assignments``, ``_units_of_type``) are
  built once and reused across inputs, as when tabulating or verifying.
* ``single-n10``: the partitions of 10 with lcm(parts) >= 20, namely (5,4,1),
  (7,3) and (5,3,2), each in its own interpreter, so every table is built
  per input, as separate CLI calls build them.  n = 10 is the rho route's
  degree bound; these inputs have the largest symmetric powers, the
  mark-matrix build for p(10) = 42, ``restrict_to_cyclic`` up to lcm 30 and
  ``stratum`` at n = 10.  The set is fixed rather than drawn, because the
  cost of a partition of 10 varies by up to a factor of three between
  partitions, which would make a drawn set's pass time depend on the seed.

End-to-end metrics (``--trace 0``), each the median over the run:

* ``setup_s``: start of a fresh interpreter to ``torusclass`` and
  ``torusclass.cli`` imported, median of several starts.
* ``lambda_s``, ``rho_s``, ``recursion_s``, ``norm_one_s``: time of one pass
  of that route over the workload's partitions.
* ``peak_rss_mib``: peak resident memory of the interpreters of a pass.

Per-layer metrics (``--trace 1``; LAYERS below names each metric's source).
A traced run alternates untraced and traced passes on the same inputs; the
difference between their route times is reported as the tracing overhead.
Counts are exact and repeat from run to run; ``self_s`` is a span's time
minus its child spans.  Which end-to-end metric each layer should move, and
on which workload:

* compositions, power_cycle_type, from_marks, mark_matrix, assignments,
  torus_coefficient, from_basis, restrict_to_cyclic:
  ``rho_s``; mark_matrix and assignments misses are one build per input on
  single-n10 and one per pass on table-n8.
* symmetric_power, orbits, cyclic_decomposition, sigma_series, mul,
  lambda_from_sigma: ``lambda_s`` and ``norm_one_s``, most on single-n10;
  ``series.invert``: ``norm_one_s`` only; ``gsets.max_elements``:
  ``peak_rss_mib``.
* stratum, units_class, units_of_type, fibered_algebra, add:
  ``recursion_s``; stratum elements also ``peak_rss_mib``.
* ``cli.main.self_s`` (parsing, rendering, outside the route spans): every
  route metric on table-n8, where calls are small.

The last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it holds the run's metadata: versions, seed, inputs, sample
counts and tail percentiles, failures, tracing overhead and absent layers.
The exit code is 1 when any call failed, 2 when the program is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
ROUTES = ("lambda", "rho", "recursion", "norm_one")
SETUP_STARTS = 15
# a run ends at most this long after its measuring time, hung children included
GRACE_S = 100

LCM_AT_LEAST_20 = [(5, 4, 1), (7, 3), (5, 3, 2)]

# (metric prefix, span names summed, statistics)
LAYERS = [
    ("combinatorics.compositions", ("combinatorics.compositions",), ("calls", "self_s")),
    ("combinatorics.power_cycle_type", ("combinatorics.power_cycle_type",), ("calls", "self_s")),
    ("gsets.symmetric_power", ("gsets.symmetric_power",), ("calls", "self_s", "elements")),
    ("gsets.orbits", ("gsets.orbits",), ("self_s",)),
    ("gsets.cyclic_decomposition", ("gsets.cyclic_decomposition",), ("self_s",)),
    ("series.lambda_from_sigma", ("series.lambda_from_sigma",), ("calls", "self_s")),
    ("series.invert", ("series.TruncatedSeries.invert",), ("calls", "self_s")),
    ("cyclic.sigma_series", ("cyclic.CyclicBurnside.sigma_series",), ("self_s",)),
    ("cyclic.mul", ("cyclic.CyclicBurnside.__mul__",), ("calls", "self_s")),
    ("cyclic.from_marks", ("cyclic.CyclicBurnside.from_marks",), ("calls", "self_s")),
    ("cyclic.add", ("cyclic.CyclicBurnside.__add__",), ("calls",)),
    ("schur.mark_matrix", ("schur.MarkMatrix.__init__",), ("build_s",)),
    ("schur.torus_coefficient", ("schur.torus_coefficient",), ("calls", "self_s")),
    ("schur.from_basis", ("schur.SchurElement.from_basis",), ("calls", "self_s")),
    ("schur.restrict_to_cyclic", ("schur.restrict_to_cyclic",), ("self_s",)),
    ("torus.stratum", ("torus.stratum",), ("calls", "self_s", "elements")),
    ("torus.units_class", ("torus.units_class",), ("calls", "self_s")),
    (
        "torus.fibered_algebra",
        ("torus.FiberedAlgebra.__init__", "torus.FiberedAlgebra.fibers",
         "torus.FiberedAlgebra.components"),
        ("self_s",),
    ),
    ("cli.main", ("cli.main",), ("self_s",)),
]
CACHES = ("schur.mark_matrix", "schur.assignments", "torus.units_of_type")
# span statistic each layer statistic reads
SPAN_STAT = {"calls": "calls", "self_s": "self_s", "elements": "elements", "build_s": "total_s"}


def partitions(n: int, largest: int | None = None) -> list[tuple[int, ...]]:
    largest = n if largest is None else largest
    if n == 0:
        return [()]
    return [
        (first,) + rest
        for first in range(min(n, largest), 0, -1)
        for rest in partitions(n - first, first)
    ]


def table_n8(rng: random.Random) -> list[list[tuple[int, ...]]]:
    grid = partitions(8)
    rng.shuffle(grid)
    return [grid]


def single_n10(rng: random.Random) -> list[list[tuple[int, ...]]]:
    grid = list(LCM_AT_LEAST_20)
    rng.shuffle(grid)
    return [[p] for p in grid]


WORKLOADS = {"table-n8": table_n8, "single-n10": single_n10}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # fixed string hashing, so iteration orders and exact counts repeat
    env["PYTHONHASHSEED"] = "0"
    return env


def measure_setup(env: dict[str, str], starts: int) -> list[float]:
    """Seconds from starting an interpreter to the package imported; the
    first start, which may compile bytecode, is not counted."""
    probe = "import torusclass, torusclass.cli; print('ready', flush=True)"
    samples = []
    for i in range(starts + 1):
        start = perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", probe], stdout=subprocess.PIPE, env=env, text=True
        ) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - start
            proc.communicate(timeout=GRACE_S)
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError("the package does not import")
        if i:
            samples.append(elapsed)
    return samples


def run_pass(jobs, trace: bool, env, first_call: int, hard_stop: float) -> dict:
    """One pass: each job in a fresh child, one child at a time."""
    record = {"traced": trace, "route_s": dict.fromkeys(ROUTES, 0.0), "rss_mib": 0.0,
              "calls": [], "layers": [], "crashes": []}
    call_id = first_call
    for job in jobs:
        spec = {"partitions": [list(p) for p in job], "trace": int(trace), "first_call": call_id}
        try:
            done = subprocess.run(
                [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                capture_output=True, text=True, env=env,
                timeout=max(1.0, hard_stop - perf_counter()),
            )
            report = json.loads(done.stdout.splitlines()[-1]) if done.returncode == 0 else None
            reason = f"exit {done.returncode}: {done.stderr.strip()[-500:]}"
        except (subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
            report, reason = None, repr(exc)
        if report is None:
            record["crashes"].append(reason)
            for parts in job:
                for route in ROUTES:
                    record["calls"].append({"partition": list(parts), "route": route,
                                            "seconds": None, "failures": [reason]})
        else:
            sys.stderr.write(done.stderr)
            record["calls"].extend(report["calls"])
            record["rss_mib"] = max(record["rss_mib"], report["rss_mib"])
            if "trace" in report:
                record["layers"].append(report["trace"])
            for call in report["calls"]:
                record["route_s"][call["route"]] += call["seconds"]
        call_id += len(job) * len(ROUTES)
    return record


def summarize(values: list[float]) -> dict:
    """Median, sample count and the highest percentile that has at least
    ten samples beyond it (absent below eleven samples)."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "n": n}
    if n > 10:
        rank = n - 10
        out["tail"] = {"percentile": round(100 * rank / n, 1), "value": ordered[rank - 1]}
    return out


def layer_metrics(traced_passes: list[dict]) -> tuple[dict, list[dict], list[str]]:
    """Per-layer metric values (counts from the first traced pass, times as
    medians over traced passes), the counts of every traced pass, and the
    names of metrics whose source has disappeared from the package."""
    per_pass = []
    absent: set[str] = set()
    for record in traced_passes:
        values: dict[str, float] = {}
        wrapped = set().union(*(s["wrapped"] for s in record["layers"]))
        for prefix, spans, stats in LAYERS:
            for stat in stats:
                name = f"{prefix}.{stat}"
                if not wrapped.intersection(spans):
                    absent.add(name)
                total = 0
                for summary in record["layers"]:
                    for span in spans:
                        total += summary["layers"].get(span, {}).get(SPAN_STAT[stat], 0)
                values[name] = total
        for prefix in CACHES:
            for stat in ("hits", "misses"):
                name = f"{prefix}.{stat}"
                found = [s["caches"][prefix][stat] for s in record["layers"] if prefix in s["caches"]]
                if not found:
                    absent.add(name)
                values[name] = sum(found)
        values["gsets.max_elements"] = max(s["max_elements"] for s in record["layers"])
        per_pass.append(values)
    metrics = {}
    for name, first in per_pass[0].items():
        unit = "s" if name.endswith("_s") else "count"
        value = statistics.median(v[name] for v in per_pass) if unit == "s" else first
        metrics[name] = {"value": value, "unit": unit}
    counts = [{k: v for k, v in p.items() if not k.endswith("_s")} for p in per_pass]
    return metrics, counts, sorted(absent)


def _median_total(passes: list[dict]) -> float:
    return statistics.median(sum(p["route_s"].values()) for p in passes)


def git_revision() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def run(jobs, seconds: float, trace: bool, setup_starts: int = SETUP_STARTS) -> tuple[dict, dict]:
    """Measure ``jobs`` for ``seconds``; return (result line, metadata)."""
    env = child_env()
    setup = [] if trace else measure_setup(env, setup_starts)
    passes = []
    deadline = perf_counter() + seconds
    hard_stop = deadline + GRACE_S
    calls_per_pass = sum(len(job) for job in jobs) * len(ROUTES)
    while not passes or perf_counter() < deadline or (trace and len(passes) < 2):
        traced = trace and len(passes) % 2 == 1
        passes.append(run_pass(jobs, traced, env, len(passes) * calls_per_pass, hard_stop))

    calls = [c for p in passes for c in p["calls"]]
    failed = [c for c in calls if c["failures"]]
    clean = [p for p in passes if not p["crashes"]]
    untraced = [p for p in clean if not p["traced"]]
    traced_passes = [p for p in clean if p["traced"]]
    samples = {"setup_s": setup}
    for route in ROUTES:
        samples[f"{route}_s"] = [p["route_s"][route] for p in untraced]
        samples[f"{route}_call_s"] = [
            c["seconds"] for p in untraced for c in p["calls"] if c["route"] == route
        ]
    samples["peak_rss_mib"] = [p["rss_mib"] for p in untraced]

    meta = {
        "python": sys.version.split()[0],
        "git_revision": git_revision(),
        "nproc": os.cpu_count(),
        "inputs": [[list(p) for p in job] for job in jobs],
        "passes": {"untraced": len(untraced), "traced": len(traced_passes),
                   "crashed": len(passes) - len(clean)},
        "samples": {k: summarize(v) for k, v in samples.items() if v},
        "pass_values": {k: v for k, v in samples.items() if not k.endswith("_call_s")},
        "fail_ratio": len(failed) / len(calls),
        "failures": [
            {"partition": c["partition"], "route": c["route"], "reasons": c["failures"]}
            for c in failed[:20]
        ],
    }
    if trace:
        metrics = {}
        if traced_passes:
            metrics, counts, absent = layer_metrics(traced_passes)
            meta["absent"] = absent
            meta["counts_repeat"] = all(c == counts[0] for c in counts)
            for name in absent:
                print(f"perfbench: warning: layer metric {name} is absent; reported as 0",
                      file=sys.stderr)
            if untraced:
                overhead = _median_total(traced_passes) - _median_total(untraced)
                meta["tracing_overhead_s"] = overhead
    else:
        metrics = {"setup_s": {"value": statistics.median(setup), "unit": "s"}}
        if untraced:
            for route in ROUTES:
                metrics[f"{route}_s"] = {"value": statistics.median(samples[f"{route}_s"]), "unit": "s"}
            metrics["peak_rss_mib"] = {"value": statistics.median(samples["peak_rss_mib"]), "unit": "MiB"}
    result = {
        "correct": not failed and bool(metrics),
        "attempted": len(calls),
        "failed": len(failed),
        "metrics": metrics,
    }
    return result, meta


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "torusclass" / "__init__.py").is_file():
        print(f"perfbench: error: no torusclass package under {SRC}", file=sys.stderr)
        return 2
    jobs = WORKLOADS[args.workload](random.Random(args.seed))
    result, meta = run(jobs, args.seconds, bool(args.trace))
    meta.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
