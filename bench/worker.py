"""One workload process: set-up, then a closed loop of timed items.

``run.py`` starts this in a fresh process with BLAS/OpenMP pinned to one
thread, so ``ru_maxrss`` is the workload's own peak memory:

    python3 bench/worker.py PLAN OUT --seconds S [--trace] [--setup-only]

One client handles the items one after another, cycling through the plan,
until ``--seconds`` of item time have been measured. Refusals the CLI maps to
an exit code are recorded per item; any other exception ends the process with
a traceback, which ``run.py`` reports as a benchmark error. After the loop
the refusal probe items, if any, run once, untimed. With ``--setup-only`` the
process imports and sets up once and writes those two times to OUT.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import notesetter.cli  # noqa: E402,F401  (everything the CLI imports)

IMPORT_S = time.perf_counter() - _START

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("plan", type=Path)
    parser.add_argument("out", type=Path)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    plan = json.loads(args.plan.read_text(encoding="utf-8"))
    workload = plan["workload"]

    if args.setup_only:
        start = time.perf_counter()
        workloads.setup(plan)
        args.out.write_text(json.dumps(
            {"import_s": IMPORT_S, "setup_s": time.perf_counter() - start}))
        return 0

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
        span = tracer.span
    else:
        def span(name, piece=None):
            return contextlib.nullcontext()

    with span("setup"):
        state = workloads.setup(plan)

    if tracer is not None:
        tracer.phase = "items"
    items = plan["items"]
    records = []
    measured = 0.0
    k = 0
    while measured < args.seconds:
        index = k % len(items)
        item = items[index]
        record = {"item": index, "notes": item["notes"],
                  "steps": item.get("steps", 1), "outcome": "ok"}
        start = time.perf_counter()
        try:
            with span("item", item["id"]):
                outcome = workloads.run_item(workload, state, item)
        except workloads.REFUSALS as exc:
            record["outcome"] = type(exc).__name__
        elapsed = time.perf_counter() - start
        measured += elapsed
        record["ms"] = elapsed * 1e3
        if record["outcome"] == "ok":
            record["digest"] = workloads.digest(workload, item, outcome)
        records.append(record)
        k += 1
        if k <= len(items):
            # the peak over the first pass, so repeats of items, whose number
            # depends on speed, do not move it
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # the refusal probe: untimed, counted by class
    if tracer is not None:
        tracer.phase = "probe"
    probe = []
    for index, item in enumerate(plan["probe"]):
        record = {"item": index, "outcome": "ok"}
        try:
            outcome = workloads.run_item(workload, state, item)
        except workloads.REFUSALS as exc:
            record["outcome"] = type(exc).__name__
        else:
            record["digest"] = workloads.digest(workload, item, outcome)
        probe.append(record)

    result = {"records": records, "probe": probe, "peak_rss_mb": peak_rss_mb}
    if tracer is not None:
        tracer.uninstall()
        result["self_s"] = tracer.self_times()
        result["counters"] = dict(tracer.counters)
        tracer.write(args.out.with_suffix(".spans.jsonl"))
    args.out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
