"""One fresh interpreter of a benchmark pass.

Usage: ``python3 perfbench/child.py '<job JSON>'`` with ``src`` on
``PYTHONPATH``.  The job is ``{"partitions": [[...], ...], "trace": 0|1,
"first_call": int}``.  For each partition, in order, the three routes run as
``torusclass.cli.main(["class", ...])`` and the norm-one class as a library
call, each timed on its own.  Memo tables live as long as this interpreter,
so they are shared across the job's partitions and built afresh per job.

After the timed calls the results are checked (see check.py), and one JSON
line goes to stdout: per-call seconds and failure reasons, peak resident
memory, memo-table counts and, when traced, the per-layer span summary.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
from time import perf_counter

import check
from tracer import Tracer


def _run_route(cli, route: str, text: str):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["class", "--partition", text, "--method", route, "--format", "json"])
    if code != 0:
        raise RuntimeError(f"exit code {code}")
    return json.loads(buf.getvalue())


def main(argv) -> int:
    job = json.loads(argv[1])
    tracer = Tracer() if job["trace"] else None
    if tracer is not None:
        tracer.install()
    import torusclass
    from torusclass import cli

    calls = []
    call_id = job["first_call"]
    for parts in job["partitions"]:
        text = ",".join(map(str, parts))
        spec = torusclass.AlgebraSpec(parts)
        for route in check.ROUTES + (check.NORM_ONE,):
            span = tracer.begin_call(f"bench.{route}", call_id) if tracer else None
            start = perf_counter()
            try:
                if route == check.NORM_ONE:
                    output = torusclass.norm_one_class(spec)
                else:
                    output = _run_route(cli, route, text)
                error = None
            except (Exception, SystemExit) as exc:  # a failed call is counted, not fatal
                output, error = None, f"{type(exc).__name__}: {exc}"
            seconds = perf_counter() - start
            if tracer is not None:
                tracer.end_call(span)
            calls.append(
                {"id": call_id, "partition": parts, "route": route,
                 "seconds": seconds, "output": output, "error": error}
            )
            call_id += 1

    report = {"rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        report["trace"] = tracer.summary()
    for parts in job["partitions"]:
        mine = [c for c in calls if c["partition"] == parts]
        failures = check.check_partition(parts, {c["route"]: c["output"] for c in mine}, torusclass)
        for c in mine:
            c["failures"] = ([c["error"]] if c["error"] else []) + failures[c["route"]]
    report["calls"] = [
        {k: c[k] for k in ("id", "partition", "route", "seconds", "failures")} for c in calls
    ]
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
