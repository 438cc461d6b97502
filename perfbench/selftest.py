"""Fast self-test of the benchmark on a tiny grid (n <= 4).

Usage, from the repository root: ``python3 perfbench/selftest.py``.  It
checks that every metric BENCHMARK.json names is emitted with its unit, that
the exact counts repeat across two traced runs, that a corrupted class
counts as a failure, and that a traced name that has disappeared from the
package is reported as absent instead of crashing the run.
"""

from __future__ import annotations

import json
import sys

import check
import run
from tracer import Tracer

TINY = [run.partitions(3) + run.partitions(4), [(2, 1)], [(1,)]]


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest: FAIL: {message}")


def declared(kind: str) -> dict[str, str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def units(result: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def test_end_to_end() -> None:
    result, meta = run.run(TINY, seconds=0, trace=False, setup_starts=2)
    expect(result["correct"] and result["failed"] == 0, f"tiny grid failed: {meta['failures']}")
    expect(result["attempted"] == 4 * sum(len(job) for job in TINY), "wrong attempted count")
    expect(units(result) == declared("end_to_end"), f"end-to-end metrics {units(result)}")


def test_traced_counts_repeat() -> dict:
    runs = [run.run(TINY, seconds=0, trace=True, setup_starts=1) for _ in range(2)]
    for result, meta in runs:
        expect(result["correct"], f"traced run failed: {meta['failures']}")
        expect(units(result) == declared("per_layer"), f"per-layer metrics {units(result)}")
        expect(meta["absent"] == [], f"absent layers {meta['absent']}")
    counts = [
        {k: m["value"] for k, m in result["metrics"].items() if m["unit"] == "count"}
        for result, _ in runs
    ]
    expect(counts[0] == counts[1], "exact counts differ between two traced runs")
    expect(counts[0]["cyclic.add.calls"] > 0, "recursion layer was not traced")
    return runs[0][1]


def test_corrupted_class_fails() -> None:
    sys.path.insert(0, str(run.SRC))
    import torusclass
    from torusclass import AlgebraSpec, CyclicBurnside, TorusClass

    spec = AlgebraSpec((2, 1))
    good = {
        "lambda": torusclass.class_via_lambda(spec),
        "rho": torusclass.class_via_universal(spec),
        "recursion": torusclass.class_via_recursion(spec),
        "norm_one": torusclass.norm_one_class(spec),
    }
    failures = check.check_partition(spec.parts, good, torusclass)
    expect(not any(failures.values()), f"correct classes rejected: {failures}")

    tc = good["rho"]
    corrupted = TorusClass(tc.n, tc.coeffs[:-1] + (tc.coeffs[-1] + CyclicBurnside.orbit(2),))
    failures = check.check_partition(spec.parts, dict(good, rho=corrupted), torusclass)
    expect(failures["rho"], "a corrupted class passed the checker")
    expect(not failures["lambda"] and not failures["recursion"], "a correct route was blamed")

    failures = check.check_partition(spec.parts, dict(good, norm_one=tc), torusclass)
    expect(failures["norm_one"], "a wrong norm-one class passed the checker")
    failures = check.check_partition(spec.parts, dict(good, recursion=None), torusclass)
    expect(failures["recursion"] and not failures["lambda"], "a missing result was not a failure")


def test_absent_names_tolerated() -> None:
    tracer = Tracer()
    tracer.install(extra_methods=[("series", "NoSuchSeries", "invert")])
    expect("series.NoSuchSeries.invert" in tracer.absent, "missing method not reported")

    record = {"layers": [{"wrapped": ["cli.main"], "layers": {}, "caches": {}, "max_elements": 0}]}
    metrics, _, absent = run.layer_metrics([record])
    expect("series.invert.calls" in absent and "schur.assignments.hits" in absent,
           "vanished layers not reported as absent")
    expect(metrics["series.invert.calls"]["value"] == 0, "absent layer not reported as 0")
    expect(set(metrics) == set(declared("per_layer")), "absent layers dropped from the output")


def main() -> int:
    test_end_to_end()
    test_traced_counts_repeat()
    test_corrupted_class_fails()
    test_absent_names_tolerated()
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
